"""The simulated Facebook platform.

This package provides the *mechanisms* the paper's measurement relies
on: user accounts and walls, third-party applications with the
64-permission OAuth install flow (Fig 2), posts and news feeds, the Open
Graph API surface that the crawler queries (app summaries, profile
feeds, deletion errors), app installation URLs with their client-ID
redirect parameter (Sec 4.1.4), the lax ``prompt_feed`` authentication
that enables app piggybacking (Sec 6.2), and Facebook-side moderation
that deletes detected apps from the graph.

*Policy* — which apps exist, what they post, how campaigns are wired —
lives in :mod:`repro.ecosystem`.
"""

from repro.platform.permissions import (
    PERMISSION_POOL,
    PUBLISH_STREAM,
    TOP_BENIGN_PERMISSIONS,
    validate_permissions,
)
from repro.platform.apps import AppRegistry, FacebookApp
from repro.platform.users import SocialGraph, UserBase
from repro.platform.posts import Post, PostLog
from repro.platform.oauth import AccessToken, TokenService
from repro.platform.install import InstallPrompt, InstallationService
from repro.platform.graph_api import GraphApi, GraphApiError
from repro.platform.moderation import ModerationEngine
from repro.platform.transport import (
    FaultPlan,
    FaultyTransport,
    RateLimitError,
    RequestTimeoutError,
    TransientGraphApiError,
    TransientServerError,
    TransportStats,
)

__all__ = [
    "PERMISSION_POOL",
    "PUBLISH_STREAM",
    "TOP_BENIGN_PERMISSIONS",
    "validate_permissions",
    "AppRegistry",
    "FacebookApp",
    "SocialGraph",
    "UserBase",
    "Post",
    "PostLog",
    "AccessToken",
    "TokenService",
    "InstallPrompt",
    "InstallationService",
    "GraphApi",
    "GraphApiError",
    "TransientGraphApiError",
    "RateLimitError",
    "TransientServerError",
    "RequestTimeoutError",
    "FaultyTransport",
    "FaultPlan",
    "TransportStats",
    "ModerationEngine",
]
