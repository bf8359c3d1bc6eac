#include "obs/telemetry_server.h"

#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "realnet/loopback.h"

namespace marlin::obs {

namespace {

// A scrape request is one line plus a few headers; anything larger is not
// a telemetry client.
constexpr std::size_t kMaxRequestBytes = 8192;

std::string http_response(int code, const char* reason,
                          const char* content_type, std::string body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

TelemetryServer::TelemetryServer(realnet::EventLoop& loop,
                                 TelemetryHandlers handlers)
    : loop_(loop), handlers_(std::move(handlers)) {}

TelemetryServer::~TelemetryServer() { shutdown(); }

Result<std::uint16_t> TelemetryServer::listen(std::uint16_t port) {
  auto l = realnet::listen_loopback(port, /*backlog=*/16);
  if (!l.is_ok()) {
    return error(l.status().code(), "telemetry: " + l.status().message());
  }
  listen_fd_ = l.value().fd;
  port_ = l.value().port;
  loop_.add_fd(listen_fd_, EPOLLIN, this);
  return port_;
}

void TelemetryServer::shutdown() {
  std::vector<int> open;
  open.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) open.push_back(fd);
  for (int fd : open) close_conn(fd);
  if (listen_fd_ >= 0) {
    loop_.del_fd(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TelemetryServer::on_fd_event(int fd, std::uint32_t events) {
  if (fd == listen_fd_) {
    accept_ready();
  } else {
    conn_event(fd, events);
  }
}

void TelemetryServer::accept_ready() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or transient error: try again next wake
    conns_.emplace(fd, Conn{});
    loop_.add_fd(fd, EPOLLIN, this);
  }
}

void TelemetryServer::conn_event(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;

  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_conn(fd);
    return;
  }
  if (conn.responding) {
    flush(fd, conn);
    return;
  }

  char buf[2048];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      if (conn.in.size() > kMaxRequestBytes) {
        // Drain whatever else already arrived before answering: closing a
        // socket with unread data RSTs the peer, which could destroy the
        // 400 before the client reads it.
        while (recv(fd, buf, sizeof buf, 0) > 0) {
        }
        conn.out = http_response(400, "Bad Request", "text/plain",
                                 "request too large\n");
        conn.responding = true;
        flush(fd, conn);
        return;
      }
      if (conn.in.find("\r\n\r\n") != std::string::npos) {
        respond(fd, conn);
        return;
      }
      continue;
    }
    if (n == 0) {
      close_conn(fd);  // peer went away before sending a full request
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(fd);
    return;
  }
}

void TelemetryServer::respond(int fd, Conn& conn) {
  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t line_end = conn.in.find("\r\n");
  const std::string line = conn.in.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);

  std::string method;
  std::string path;
  if (sp1 != std::string::npos && sp2 != std::string::npos) {
    method = line.substr(0, sp1);
    path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t q = path.find('?');
    if (q != std::string::npos) path.resize(q);  // ignore query strings
  }

  ++served_;
  if (method != "GET") {
    conn.out = http_response(405, "Method Not Allowed", "text/plain",
                             "only GET is supported\n");
  } else if (path == "/metrics" && handlers_.metrics) {
    conn.out = http_response(200, "OK",
                             "text/plain; version=0.0.4; charset=utf-8",
                             handlers_.metrics());
  } else if (path == "/status" && handlers_.status) {
    conn.out =
        http_response(200, "OK", "application/json", handlers_.status());
  } else if (path == "/healthz" && handlers_.healthy) {
    if (handlers_.healthy()) {
      conn.out = http_response(200, "OK", "text/plain", "ok\n");
    } else {
      conn.out =
          http_response(503, "Service Unavailable", "text/plain", "stalled\n");
    }
  } else if (path == "/") {
    conn.out = http_response(
        200, "OK", "text/plain",
        "marlin telemetry\nroutes: /metrics /status /healthz\n");
  } else {
    conn.out = http_response(404, "Not Found", "text/plain", "not found\n");
  }
  conn.responding = true;
  flush(fd, conn);
}

bool TelemetryServer::flush(int fd, Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = send(fd, conn.out.data() + conn.out_off,
                           conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.mod_fd(fd, EPOLLOUT);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(fd);
    return false;
  }
  close_conn(fd);  // HTTP/1.0, Connection: close
  return false;
}

void TelemetryServer::close_conn(int fd) {
  loop_.del_fd(fd);
  close(fd);
  conns_.erase(fd);
}

}  // namespace marlin::obs
