#include "serve/net/socket.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "serve/net/envelope.hpp"

namespace liquid3d {

namespace {

/// Unix-domain sockets have no Nagle delay; the call fails harmlessly.
void set_no_delay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw WireError(WireErrorCode::kDisconnected,
                  what + ": " + std::strerror(errno));
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  LIQUID3D_REQUIRE(path.size() < sizeof addr.sun_path,
                   "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// getaddrinfo wrapper; caller owns the returned list.
addrinfo* resolve(const Endpoint& ep, bool listening) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (listening) hints.ai_flags = AI_PASSIVE;
  addrinfo* list = nullptr;
  const char* host =
      (listening && ep.host == "*") ? nullptr : ep.host.c_str();
  const int rc = ::getaddrinfo(host, ep.port.c_str(), &hints, &list);
  if (rc != 0) {
    throw ConfigError("cannot resolve endpoint '" + to_string(ep) +
                      "': " + gai_strerror(rc));
  }
  return list;
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec, const std::string& what) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = spec.substr(5);
    LIQUID3D_REQUIRE(!ep.path.empty(),
                     what + ": empty unix socket path in '" + spec + "'");
    return ep;
  }
  const std::size_t colon = spec.rfind(':');
  LIQUID3D_REQUIRE(colon != std::string::npos && colon > 0 &&
                       colon + 1 < spec.size(),
                   what + ": endpoint '" + spec +
                       "' is neither HOST:PORT nor unix:PATH");
  ep.host = spec.substr(0, colon);
  ep.port = spec.substr(colon + 1);
  for (const char c : ep.port) {
    LIQUID3D_REQUIRE(c >= '0' && c <= '9',
                     what + ": non-numeric port in '" + spec + "'");
  }
  return ep;
}

std::string to_string(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUnix) return "unix:" + ep.path;
  return ep.host + ":" + ep.port;
}

int listen_socket(const Endpoint& ep, int backlog) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(unix)");
    ::unlink(ep.path.c_str());
    const sockaddr_un addr = unix_sockaddr(ep.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, backlog) < 0) {
      ::close(fd);
      throw_errno("bind/listen " + to_string(ep));
    }
    return fd;
  }
  addrinfo* list = resolve(ep, true);
  int fd = -1;
  for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, backlog) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(list);
  if (fd < 0) throw_errno("bind/listen " + to_string(ep));
  return fd;
}

Endpoint bound_endpoint(int listen_fd, const Endpoint& requested) {
  if (requested.kind == Endpoint::Kind::kUnix) return requested;
  sockaddr_storage storage{};
  socklen_t len = sizeof storage;
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&storage), &len) <
      0) {
    throw_errno("getsockname");
  }
  in_port_t port = 0;
  if (storage.ss_family == AF_INET) {
    port = reinterpret_cast<const sockaddr_in*>(&storage)->sin_port;
  } else if (storage.ss_family == AF_INET6) {
    port = reinterpret_cast<const sockaddr_in6*>(&storage)->sin6_port;
  }
  Endpoint ep = requested;
  ep.port = std::to_string(ntohs(port));
  return ep;
}

int accept_socket(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) set_no_delay(fd);
  return fd;
}

int connect_socket(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(unix)");
    const sockaddr_un addr = unix_sockaddr(ep.path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
        0) {
      ::close(fd);
      throw_errno("connect " + to_string(ep));
    }
    return fd;
  }
  addrinfo* list = resolve(ep, false);
  int fd = -1;
  int saved_errno = ECONNREFUSED;
  for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      set_no_delay(fd);
      break;
    }
    saved_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(list);
  if (fd < 0) {
    errno = saved_errno;
    throw_errno("connect " + to_string(ep));
  }
  return fd;
}

}  // namespace liquid3d
