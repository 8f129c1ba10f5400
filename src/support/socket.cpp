#include "support/socket.hpp"

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "support/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define RS_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define RS_HAVE_SOCKETS 0
#endif

namespace rs::support {

#if RS_HAVE_SOCKETS

namespace {

[[noreturn]] void fail(const std::string& what) {
  RS_REQUIRE(false, what + ": " + std::strerror(errno));
  __builtin_unreachable();
}

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  RS_REQUIRE(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
             "bad IPv4 address '" + host + "'");
  return addr;
}

}  // namespace

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

ListenSocket::ListenSocket(const std::string& host, int port) {
  RS_REQUIRE(port >= 0 && port <= 65535, "port must be in [0, 65535]");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, 64) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail("getsockname");
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
  RS_REQUIRE(set_nonblocking(fd_), "cannot set listener non-blocking");
}

ListenSocket::~ListenSocket() { close_fd(fd_); }

int ListenSocket::accept_client() {
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return -1;
    return -2;  // EMFILE and friends: pending connection cannot be cleared
  }
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return -2;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

WakeFd::WakeFd() {
  int p[2];
  if (::pipe(p) != 0) fail("pipe");
  read_fd_ = p[0];
  write_fd_ = p[1];
  if (!set_nonblocking(read_fd_) || !set_nonblocking(write_fd_)) {
    const int saved = errno;
    ::close(read_fd_);
    ::close(write_fd_);
    errno = saved;
    fail("self-pipe O_NONBLOCK");
  }
}

WakeFd::~WakeFd() {
  close_fd(write_fd_);
  close_fd(read_fd_);
}

void WakeFd::signal() {
  // acq_rel: the drain's exchange reads this RMW (or a later one in the
  // same release sequence), so what the signaller did before it is visible
  // to the drainer.
  if (pending_.exchange(true, std::memory_order_acq_rel)) return;
  const char one = 1;
  const ssize_t n = ::write(write_fd_, &one, 1);
  static_cast<void>(n);  // a failed write leaves an unread wake: still armed
}

void WakeFd::drain() {
  // Read before clearing: a signal landing between the two skips its
  // write, but the exchange below makes its work visible to this caller;
  // one landing after the clear writes again. Clearing first could consume
  // a fresh write and leave pending_ set over an empty fd, swallowing
  // every later signal. Only a false->true flip writes, so one read
  // normally empties the pipe; a byte written late by a signaller that
  // flipped the flag before the previous clear only costs one spurious
  // wake.
  char buf[64];
  const ssize_t n = ::read(read_fd_, buf, sizeof buf);
  static_cast<void>(n);  // EAGAIN: nothing pending
  pending_.exchange(false, std::memory_order_acq_rel);
}

int connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

long send_some(int fd, std::string_view data) {
  ssize_t n = ::send(fd, data.data(), data.size(),
#ifdef MSG_NOSIGNAL
                     MSG_NOSIGNAL
#else
                     0
#endif
  );
  if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data.data(), data.size());
  if (n >= 0) return static_cast<long>(n);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return -1;
  return -2;
}

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const long n = send_some(fd, data.substr(off));
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n == -1) {
      pollfd p = {fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

long recv_some(int fd, std::string* out) {
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  if (n > 0) {
    out->append(buf, static_cast<std::size_t>(n));
    return static_cast<long>(n);
  }
  if (n == 0) return 0;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return -1;
  return -2;
}

#else  // !RS_HAVE_SOCKETS

bool set_nonblocking(int) { return false; }
void close_fd(int) {}

WakeFd::WakeFd() {
  RS_REQUIRE(false, "poll wake handles are not supported on this platform");
}
WakeFd::~WakeFd() = default;
void WakeFd::signal() {}
void WakeFd::drain() {}

ListenSocket::ListenSocket(const std::string&, int) {
  RS_REQUIRE(false, "TCP sockets are not supported on this platform");
}
ListenSocket::~ListenSocket() = default;
int ListenSocket::accept_client() { return -1; }

int connect_tcp(const std::string&, int) {
  RS_REQUIRE(false, "TCP sockets are not supported on this platform");
  return -1;
}
long send_some(int, std::string_view) { return -2; }
bool send_all(int, std::string_view) { return false; }
long recv_some(int, std::string*) { return -2; }

#endif

}  // namespace rs::support
