#include "net/socket_io.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

#include "net/protocol.h"
#include "obs/metrics.h"

namespace cdbs::net {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + ::strerror(errno));
}

/// Wire bytes actually moved (headers + payloads). Registered lazily in
/// the process-wide registry so every transport user (server, client,
/// replication streams) shares one pair of counters.
obs::Counter* RxBytesCounter() {
  static obs::Counter* c = obs::MetricRegistry::Default().GetCounter(
      "net.frame.rx.bytes", "Frame bytes received (headers + payload)");
  return c;
}

obs::Counter* TxBytesCounter() {
  static obs::Counter* c = obs::MetricRegistry::Default().GetCounter(
      "net.frame.tx.bytes", "Frame bytes sent (headers + payload)");
  return c;
}

/// Waits for `events` on `fd` for up to `timeout_ms` (< 0: forever).
/// OK when ready; kDeadlineExceeded on timeout; kIoError on poll failure.
Status PollFor(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::DeadlineExceeded("socket i/o timed out");
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

Status MakeAddr(const std::string& host, uint16_t port,
                struct sockaddr_in* addr) {
  ::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  return Status::OK();
}

}  // namespace

Result<int> ListenTcp(const std::string& host, uint16_t port, int backlog,
                      uint16_t* bound_port) {
  struct sockaddr_in addr;
  CDBS_RETURN_NOT_OK(MakeAddr(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, backlog) != 0) {
    const Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  if (bound_port != nullptr) {
    struct sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&actual),
                      &len) != 0) {
      const Status st = Errno("getsockname");
      ::close(fd);
      return st;
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       int timeout_ms) {
  struct sockaddr_in addr;
  CDBS_RETURN_NOT_OK(MakeAddr(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  // Non-blocking connect so the timeout is enforceable.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const Status st = Errno("connect");
    ::close(fd);
    return st;
  }
  if (rc != 0) {
    const Status ready = PollFor(fd, POLLOUT, timeout_ms);
    if (!ready.ok()) {
      ::close(fd);
      return ready.code() == StatusCode::kDeadlineExceeded
                 ? Status::IoError("connect timed out")
                 : ready;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return Status::IoError(std::string("connect: ") +
                             ::strerror(err != 0 ? err : errno));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; I/O is poll-guarded
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status ReadFull(int fd, char* buf, size_t n, int timeout_ms,
                bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t done = 0;
  while (done < n) {
    CDBS_RETURN_NOT_OK(PollFor(fd, POLLIN, timeout_ms));
    const ssize_t rc = ::recv(fd, buf + done, n - done, 0);
    if (rc > 0) {
      done += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      if (done == 0 && clean_eof != nullptr) *clean_eof = true;
      return Status::IoError("connection closed by peer");
    }
    if (errno == EINTR) continue;
    return Errno("recv");
  }
  return Status::OK();
}

Status WriteFull(int fd, const char* buf, size_t n, int timeout_ms) {
  size_t done = 0;
  while (done < n) {
    CDBS_RETURN_NOT_OK(PollFor(fd, POLLOUT, timeout_ms));
    const ssize_t rc = ::send(fd, buf + done, n - done, MSG_NOSIGNAL);
    if (rc > 0) {
      done += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

Status ReadFrame(int fd, std::string* payload, int timeout_ms,
                 bool* clean_eof) {
  char header[kFrameHeaderBytes];
  CDBS_RETURN_NOT_OK(
      ReadFull(fd, header, sizeof(header), timeout_ms, clean_eof));
  uint32_t len = 0;
  CDBS_RETURN_NOT_OK(ParseFrameHeader(header, &len));
  payload->resize(len);
  if (len > 0) {
    CDBS_RETURN_NOT_OK(ReadFull(fd, payload->data(), len, timeout_ms));
  }
  RxBytesCounter()->Increment(kFrameHeaderBytes + len);
  return VerifyFrame(header, *payload);
}

Status WriteFrame(int fd, std::string_view frame, int timeout_ms) {
  CDBS_RETURN_NOT_OK(WriteFull(fd, frame.data(), frame.size(), timeout_ms));
  TxBytesCounter()->Increment(frame.size());
  return Status::OK();
}

}  // namespace cdbs::net

