"""smartFAM: the file-alteration-monitor invocation channel (Section IV-A).

The host never opens a socket to the SD node's application code — the
*storage interface* is the channel.  Each preloaded data-intensive module
has a **log file** on the NFS share:

* invoking: the host writes the module's input parameters into its log
  file (Step 1); `inotify` on the SD node notices (Step 2); the SD daemon
  reads the parameters (Step 3) and invokes the module (Step 4);
* returning: the module's results are written to the same log file
  (Step 1'); the host-side monitor sees the modification (Step 2' — over
  NFS this is mtime polling); the host daemon notifies the calling
  application (Step 3'), which reads the results (Step 4').

Every step charges real simulated cost: NFS RPCs, disk I/O, notification
latencies, daemon dispatch overhead.
"""

from repro.smartfam.daemon import HostSmartFAM, SDSmartFAM
from repro.smartfam.distmod import dist_map, dist_merge
from repro.smartfam.logfile import LogFileCodec, LogRecord
from repro.smartfam.registry import ModuleRegistry, standard_registry

__all__ = [
    "LogRecord",
    "LogFileCodec",
    "ModuleRegistry",
    "standard_registry",
    "SDSmartFAM",
    "HostSmartFAM",
    "dist_map",
    "dist_merge",
]
