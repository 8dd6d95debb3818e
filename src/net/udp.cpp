#include "dapple/net/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "dapple/util/error.hpp"
#include "dapple/util/log.hpp"

namespace dapple {

namespace {

constexpr const char* kLog = "udp";
constexpr std::size_t kMaxDatagram = 65507;  // UDP/IPv4 payload limit

[[noreturn]] void throwErrno(const char* what) {
  throw NetworkError(std::string(what) + ": " + std::strerror(errno));
}

sockaddr_in toSockaddr(const NodeAddress& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  sa.sin_addr.s_addr = htonl(addr.host);
  return sa;
}

NodeAddress fromSockaddr(const sockaddr_in& sa) {
  return NodeAddress{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

}  // namespace

/// Shared across the network's endpoints (wait-free relaxed atomics, same
/// discipline as obs::Counter).
struct UdpNetwork::Counters {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> sendErrors{0};
};

class UdpNetwork::EndpointImpl final : public Endpoint {
 public:
  EndpointImpl(std::uint16_t port, std::shared_ptr<Counters> counters)
      : counters_(std::move(counters)) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) throwErrno("socket");
    sockaddr_in bindAddr{};
    bindAddr.sin_family = AF_INET;
    bindAddr.sin_port = htons(port);
    bindAddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&bindAddr),
               sizeof bindAddr) != 0) {
      const int err = errno;
      ::close(fd_);
      errno = err;
      throwErrno("bind");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      const int err = errno;
      ::close(fd_);
      errno = err;
      throwErrno("getsockname");
    }
    addr_ = fromSockaddr(bound);
    // A short receive timeout lets the receiver thread poll its stop token.
    timeval tv{};
    tv.tv_sec = 0;
    tv.tv_usec = 50'000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    receiver_ = std::jthread([this](std::stop_token stop) { run(stop); });
  }

  ~EndpointImpl() override { close(); }

  NodeAddress address() const override { return addr_; }

  std::size_t maxDatagramSize() const override { return kMaxDatagram; }

  /// One sendto.  Transient errors are treated as loss, which the reliable
  /// layer above absorbs.  Callers have already checked closed_ and size.
  void sendOne(const NodeAddress& dst, const std::string& payload) {
    const sockaddr_in sa = toSockaddr(dst);
    const ssize_t n =
        ::sendto(fd_, payload.data(), payload.size(), 0,
                 reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
    if (n < 0) {
      counters_->sendErrors.fetch_add(1, std::memory_order_relaxed);
      DAPPLE_LOG(kDebug, kLog)
          << "sendto " << dst.toString() << " failed: " << std::strerror(errno);
    } else {
      counters_->sent.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void sendBatch(std::vector<Datagram> batch) override {
    {
      std::scoped_lock lock(mutex_);
      if (closed_) return;
    }
#ifdef __linux__
    // One sendmmsg syscall per (up to) kBatch datagrams instead of one
    // sendto each.  Oversize datagrams are counted and skipped — the batch
    // paths (retransmit sweep, ack flush) run in the endpoint's tick, where a
    // throw has nowhere useful to go; loss semantics match a dropped
    // datagram, which the reliable layer absorbs.
    constexpr std::size_t kBatch = 64;
    std::size_t i = 0;
    while (i < batch.size()) {
      sockaddr_in sas[kBatch];
      iovec iovs[kBatch];
      mmsghdr msgs[kBatch];
      std::size_t n = 0;
      while (i < batch.size() && n < kBatch) {
        Datagram& d = batch[i++];
        if (d.payload.size() > kMaxDatagram) {
          // Counted as loss per the sendBatch contract, but an oversize
          // frame is an application bug (the reliable layer's admission
          // check rejects doomed payloads up front), so warn, not debug.
          counters_->sendErrors.fetch_add(1, std::memory_order_relaxed);
          DAPPLE_LOG(kWarn, kLog) << "dropping oversize datagram ("
                                  << d.payload.size() << " > " << kMaxDatagram
                                  << " bytes): counted as loss";
          continue;
        }
        sas[n] = toSockaddr(d.dst);
        iovs[n] = {const_cast<char*>(d.payload.data()), d.payload.size()};
        msgs[n] = mmsghdr{};
        msgs[n].msg_hdr.msg_name = &sas[n];
        msgs[n].msg_hdr.msg_namelen = sizeof sas[n];
        msgs[n].msg_hdr.msg_iov = &iovs[n];
        msgs[n].msg_hdr.msg_iovlen = 1;
        ++n;
      }
      if (n == 0) continue;
      std::size_t done = 0;
      while (done < n) {
        const int sent = ::sendmmsg(fd_, msgs + done,
                                    static_cast<unsigned>(n - done), 0);
        if (sent < 0) {
          if (errno == EINTR) continue;
          // Transient errors are loss; the reliable layer retransmits.
          counters_->sendErrors.fetch_add(n - done,
                                          std::memory_order_relaxed);
          DAPPLE_LOG(kDebug, kLog)
              << "sendmmsg failed: " << std::strerror(errno);
          break;
        }
        counters_->sent.fetch_add(static_cast<std::uint64_t>(sent),
                                  std::memory_order_relaxed);
        done += static_cast<std::size_t>(sent);
      }
    }
#else
    for (Datagram& d : batch) {
      if (d.payload.size() > kMaxDatagram) {
        counters_->sendErrors.fetch_add(1, std::memory_order_relaxed);
        DAPPLE_LOG(kWarn, kLog) << "dropping oversize datagram ("
                                << d.payload.size() << " > " << kMaxDatagram
                                << " bytes): counted as loss";
        continue;
      }
      sendOne(d.dst, d.payload);
    }
#endif
  }

  void setHandler(Handler handler) override {
    std::scoped_lock lock(mutex_);
    handler_ = std::move(handler);
  }

  void close() override {
    {
      std::scoped_lock lock(mutex_);
      if (closed_) return;
      closed_ = true;
      handler_ = nullptr;
    }
    receiver_.request_stop();
    if (receiver_.joinable() &&
        receiver_.get_id() != std::this_thread::get_id()) {
      receiver_.join();
    }
    ::close(fd_);
    fd_ = -1;
  }

 private:
#ifdef __linux__
  void run(std::stop_token stop) {
    // Drain bursts with one recvmmsg syscall into preallocated buffers and
    // hand the handler views into them (zero-copy receive).  MSG_WAITFORONE
    // blocks (honoring SO_RCVTIMEO, which keeps the stop-token poll alive)
    // until at least one datagram lands, then grabs whatever else is queued.
    constexpr std::size_t kBatch = 16;
    std::vector<std::vector<char>> bufs(kBatch,
                                        std::vector<char>(kMaxDatagram));
    sockaddr_in froms[kBatch];
    iovec iovs[kBatch];
    mmsghdr msgs[kBatch];
    while (!stop.stop_requested()) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        iovs[i] = {bufs[i].data(), bufs[i].size()};
        msgs[i] = mmsghdr{};
        msgs[i].msg_hdr.msg_name = &froms[i];
        msgs[i].msg_hdr.msg_namelen = sizeof froms[i];
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      const int n = ::recvmmsg(fd_, msgs, kBatch, MSG_WAITFORONE, nullptr);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        if (stop.stop_requested()) break;
        DAPPLE_LOG(kDebug, kLog) << "recvmmsg: " << std::strerror(errno);
        continue;
      }
      Handler handler;
      {
        std::scoped_lock lock(mutex_);
        if (closed_) break;
        handler = handler_;
      }
      if (!handler) continue;
      counters_->received.fetch_add(static_cast<std::uint64_t>(n),
                                    std::memory_order_relaxed);
      for (int i = 0; i < n; ++i) {
        handler(fromSockaddr(froms[i]),
                std::string_view(bufs[i].data(), msgs[i].msg_len));
      }
    }
  }
#else
  void run(std::stop_token stop) {
    std::vector<char> buf(kMaxDatagram);
    while (!stop.stop_requested()) {
      sockaddr_in from{};
      socklen_t fromLen = sizeof from;
      const ssize_t n =
          ::recvfrom(fd_, buf.data(), buf.size(), 0,
                     reinterpret_cast<sockaddr*>(&from), &fromLen);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        if (stop.stop_requested()) break;
        DAPPLE_LOG(kDebug, kLog) << "recvfrom: " << std::strerror(errno);
        continue;
      }
      Handler handler;
      {
        std::scoped_lock lock(mutex_);
        if (closed_) break;
        handler = handler_;
      }
      if (handler) {
        counters_->received.fetch_add(1, std::memory_order_relaxed);
        handler(fromSockaddr(from),
                std::string_view(buf.data(), static_cast<std::size_t>(n)));
      }
    }
  }
#endif

  std::shared_ptr<Counters> counters_;
  int fd_ = -1;
  NodeAddress addr_;
  mutable std::mutex mutex_;
  Handler handler_;
  bool closed_ = false;
  std::jthread receiver_;
};

UdpNetwork::UdpNetwork() : counters_(std::make_shared<Counters>()) {}
UdpNetwork::~UdpNetwork() = default;

std::shared_ptr<Endpoint> UdpNetwork::open(std::uint16_t port) {
  return std::make_shared<EndpointImpl>(port, counters_);
}

UdpNetwork::Stats UdpNetwork::stats() const {
  Stats s;
  s.sent = counters_->sent.load(std::memory_order_relaxed);
  s.received = counters_->received.load(std::memory_order_relaxed);
  s.sendErrors = counters_->sendErrors.load(std::memory_order_relaxed);
  return s;
}

obs::MetricsSnapshot UdpNetwork::metrics() const {
  const Stats s = stats();
  obs::MetricsSnapshot snap;
  snap.counters["udp.sent"] = s.sent;
  snap.counters["udp.received"] = s.received;
  snap.counters["udp.send_errors"] = s.sendErrors;
  return snap;
}

}  // namespace dapple
