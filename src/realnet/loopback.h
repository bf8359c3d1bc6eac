// The loopback TCP listener every metal endpoint opens: replica transports
// (bound up front by RealCluster, or by TcpTransport::listen) and the
// telemetry server. Lives in marlin_netcore so marlin_obs can use it.
#pragma once

#include <cstdint>

#include "common/status.h"

namespace marlin::realnet {

struct LoopbackListener {
  int fd = -1;             // non-blocking, close-on-exec, listening
  std::uint16_t port = 0;  // the bound port (the kernel's pick for 0)
};

/// Opens a TCP socket with SO_REUSEADDR (so a relaunch can rebind a port
/// in TIME_WAIT), binds it to 127.0.0.1:`port` (0 = ephemeral) and listens
/// with `backlog`. Errors: kUnavailable when the bind fails (the port is
/// taken), kIoError otherwise.
Result<LoopbackListener> listen_loopback(std::uint16_t port, int backlog);

}  // namespace marlin::realnet
