#include "realnet/loopback.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace marlin::realnet {

Result<LoopbackListener> listen_loopback(std::uint16_t port, int backlog) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return error(ErrorCode::kIoError,
                 "socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string msg = std::strerror(errno);
    close(fd);
    return error(ErrorCode::kUnavailable,
                 "bind 127.0.0.1:" + std::to_string(port) + ": " + msg);
  }
  if (listen(fd, backlog) != 0) {
    const std::string msg = std::strerror(errno);
    close(fd);
    return error(ErrorCode::kIoError, "listen: " + msg);
  }
  socklen_t len = sizeof addr;
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return LoopbackListener{fd, ntohs(addr.sin_port)};
}

}  // namespace marlin::realnet
