#include "src/net/tcp.h"

#include <cassert>
#include <cstring>

namespace iolnet {

TcpConnection::TcpConnection(NetworkSubsystem* net, bool iolite_sockets)
    : net_(net), iolite_sockets_(iolite_sockets) {}

TcpConnection::~TcpConnection() {
  if (connected_) {
    Close();
  }
}

void TcpConnection::Connect() {
  assert(!connected_);
  iolsim::SimContext* ctx = net_->ctx_;
  ctx->ChargeCpu(ctx->cost().TcpSetupCost());
  ctx->stats().tcp_connections++;
  if (!iolite_sockets_) {
    // Copy-based sockets need real send-buffer memory sized to the
    // bandwidth-delay product (Tss). IO-Lite send queues hold references.
    ctx->memory().Reserve("socket_send_buffers",
                          ctx->cost().params().socket_send_buffer_bytes);
  } else {
    // Mbuf headers only ("a small amount of memory is required to hold
    // mbuf structures", Section 5.7).
    ctx->memory().Reserve("socket_send_buffers", 2048);
  }
  net_->open_connections_++;
  connected_ = true;
}

void TcpConnection::Close() {
  assert(connected_);
  iolsim::SimContext* ctx = net_->ctx_;
  if (!iolite_sockets_) {
    ctx->memory().Release("socket_send_buffers",
                          ctx->cost().params().socket_send_buffer_bytes);
  } else {
    ctx->memory().Release("socket_send_buffers", 2048);
  }
  net_->open_connections_--;
  connected_ = false;
}

void TcpConnection::ReceiveRequest(size_t n) {
  iolsim::SimContext* ctx = net_->ctx_;
  // Early demultiplexing: the packet filter classifies the packet to an
  // I/O stream (and hence an ACL) before it is stored (Section 3.6).
  ctx->ChargeCpu(ctx->cost().PacketProcessingCost(n));
  ctx->stats().packets_sent++;  // Request packets also traverse the stack.
}

void TcpConnection::ChargePackets(size_t n) {
  iolsim::SimContext* ctx = net_->ctx_;
  ctx->ChargeCpu(ctx->cost().PacketProcessingCost(n));
  uint64_t packets =
      (n + ctx->cost().params().mtu_bytes - 1) / ctx->cost().params().mtu_bytes;
  ctx->stats().packets_sent += packets == 0 ? 1 : packets;
}

char* TcpConnection::Scratch(size_t n) {
  if (scratch_size_ < n) {
    // Geometric growth, and make_unique_for_overwrite: the old exact-size
    // make_unique<char[]> value-initialized (memset) the whole buffer right
    // before every byte of it was overwritten by the send path.
    size_t grown = scratch_size_ < 4096 ? 4096 : scratch_size_ * 2;
    if (grown < n) {
      grown = n;
    }
    scratch_ = std::make_unique_for_overwrite<char[]>(grown);
    scratch_size_ = grown;
  }
  return scratch_.get();
}

size_t TcpConnection::SendScratch(size_t n) {
  iolsim::SimContext* ctx = net_->ctx_;
  ctx->ChargeCpu(ctx->cost().CopyCost(n));
  ctx->stats().bytes_copied += n;
  ctx->stats().copy_ops++;
  ChecksumAccumulate(scratch_.get(), n);
  ctx->ChargeCpu(ctx->cost().ChecksumCost(n));
  ctx->stats().bytes_checksummed += n;
  ctx->stats().checksum_ops++;
  ChargePackets(n);
  bytes_sent_ += n;
  ctx->stats().bytes_sent += n;
  return n;
}

size_t TcpConnection::SendCopy(const iolite::Aggregate& src) {
  assert(connected_);
  size_t n = src.size();
  src.CopyTo(Scratch(n));  // Into kernel send-buffer clusters.
  return SendScratch(n);
}

size_t TcpConnection::SendGatheredCopy(const char* header, size_t header_len,
                                       const iolite::Aggregate& body) {
  assert(connected_);
  size_t n = header_len + body.size();
  char* scratch = Scratch(n);
  std::memcpy(scratch, header, header_len);
  body.CopyTo(scratch + header_len);
  return SendScratch(n);
}

size_t TcpConnection::SendPrivateCopy(const char* a, size_t na, const char* b, size_t nb) {
  assert(connected_);
  size_t n = na + nb;
  char* scratch = Scratch(n);
  std::memcpy(scratch, a, na);
  std::memcpy(scratch + na, b, nb);
  return SendScratch(n);
}

void TcpConnection::TransmitAsync(size_t n, iolsim::InlineCallback done) {
  if (n == 0) {
    // Header-only/empty response: one ACK-sized segment still occupies the
    // link for a negligible-but-ordered slot.
    iolsim::SimContext* ctx = net_->ctx_;
    iolsim::Resource* link = link_ != nullptr ? link_->link : &ctx->link();
    link->AcquireAsync(&ctx->events(), 0, std::move(done));
    return;
  }
  net_->TransmitSegment(net_->AcquireTransmit(n, link_, std::move(done)));
}

uint32_t NetworkSubsystem::AcquireTransmit(size_t remaining, const LinkSpec* link,
                                           iolsim::InlineCallback done) {
  uint32_t idx;
  if (free_transmit_ != UINT32_MAX) {
    idx = free_transmit_;
    free_transmit_ = transmits_[idx].next_free;
  } else {
    idx = static_cast<uint32_t>(transmits_.size());
    transmits_.emplace_back();
  }
  transmits_[idx].remaining = remaining;
  transmits_[idx].link = link;
  transmits_[idx].done = std::move(done);
  return idx;
}

void NetworkSubsystem::TransmitSegment(uint32_t idx) {
  // Same link-reservation sequence as the old per-segment closure chain —
  // one acquisition per MSS segment, the next reserved at the previous
  // segment's completion event — but the state is a pooled node the
  // completion re-arms, so steady-state transmission allocates nothing.
  size_t remaining = transmits_[idx].remaining;
  size_t mtu = static_cast<size_t>(ctx_->cost().params().mtu_bytes);
  size_t seg = remaining < mtu ? remaining : mtu;
  transmits_[idx].remaining = remaining - seg;
  const LinkSpec* spec = transmits_[idx].link;
  iolsim::Resource* link;
  iolsim::SimTime wire;
  if (spec == nullptr) {
    link = &ctx_->link();
    wire = seg == mtu ? mss_wire_time_ : ctx_->cost().WireTime(seg);
  } else {
    link = spec->link;
    // An unprimed spec (mss_wire_time == 0) falls back to the computation.
    wire = seg == mtu && spec->mss_wire_time > 0 ? spec->mss_wire_time
                                                 : spec->WireTime(seg);
  }
  link->AcquireAsync(&ctx_->events(), wire, [this, idx] {
    TransmitState& t = transmits_[idx];
    if (t.remaining == 0) {
      iolsim::InlineCallback done = std::move(t.done);
      t.next_free = free_transmit_;
      free_transmit_ = idx;
      done();
    } else {
      TransmitSegment(idx);
    }
  });
}

size_t TcpConnection::SendAggregate(const iolite::Aggregate& agg) {
  assert(connected_);
  iolsim::SimContext* ctx = net_->ctx_;
  size_t n = agg.size();
  // Encapsulate by reference: one external mbuf per slice, no data touch.
  MbufChain chain = MbufChain::FromAggregate(agg);
  assert(chain.length() == n);
  // Checksum via the module: cached per-slice sums apply when the same
  // immutable buffer contents are transmitted repeatedly.
  net_->checksum_.Checksum(agg);
  ChargePackets(n);
  bytes_sent_ += n;
  ctx->stats().bytes_sent += n;
  return n;
}

}  // namespace iolnet
