"""Grid middleware substrate (§2, §3.1).

The pieces of the In-VIGO-style middleware that GVFS assumes: logical
user accounts with short-lived identity allocation
(:mod:`~repro.middleware.accounts`), a golden-image catalog with
requirement matchmaking (:mod:`~repro.middleware.imageserver`), the
sharded/replicated image-server farm — namenode placement over
datanode replicas (:mod:`~repro.middleware.farm`) — and the VM-session
orchestrator that ties accounts, sessions, cloning and consistency
signals together (:mod:`~repro.middleware.sessions`).
"""

from repro.middleware.accounts import AccountManager, LogicalAccount
from repro.middleware.farm import (DataServerNode, FarmFileChannel,
                                   FarmOriginClient, ImageFarm,
                                   MetadataService)
from repro.middleware.imageserver import ImageCatalog, ImageRequirements
from repro.middleware.sessions import VmSessionManager, VmSession
from repro.middleware.scheduler import Task, TaskResult, TaskScheduler

__all__ = [
    "AccountManager",
    "DataServerNode",
    "FarmFileChannel",
    "FarmOriginClient",
    "ImageCatalog",
    "ImageFarm",
    "ImageRequirements",
    "LogicalAccount",
    "MetadataService",
    "Task",
    "TaskResult",
    "TaskScheduler",
    "VmSession",
    "VmSessionManager",
]
