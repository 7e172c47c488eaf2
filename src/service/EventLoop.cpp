//===--- EventLoop.cpp - Epoll-driven connection event loop ---------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "service/EventLoop.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace lockin;
using namespace lockin::service;

namespace {

/// epoll key reserved for the wakeup fd.
constexpr uint64_t kWakeKey = ~0ull;

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

/// Registers (EPOLL_CTL_ADD) or updates (EPOLL_CTL_MOD) the level-triggered
/// interest of \p Fd under \p Key.
void watch(int EpollFd, int Op, int Fd, uint64_t Key, bool WantRead,
           bool WantWrite) {
  epoll_event Ev{};
  Ev.events =
      (WantRead ? (EPOLLIN | EPOLLRDHUP) : 0u) | (WantWrite ? EPOLLOUT : 0u);
  Ev.data.u64 = Key;
  ::epoll_ctl(EpollFd, Op, Fd, &Ev);
}

} // namespace

//===----------------------------------------------------------------------===//
// EventLoop
//===----------------------------------------------------------------------===//

EventLoop::EventLoop(Config C, EventLoopHandler &H)
    : Cfg(std::move(C)), Handler(H) {}

EventLoop::~EventLoop() {
  if (Thread.joinable())
    Thread.join();
  if (EpollFd >= 0)
    ::close(EpollFd);
  if (WakeFd >= 0)
    ::close(WakeFd);
}

bool EventLoop::start(std::string &Err) {
  EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  if (EpollFd < 0) {
    Err = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  WakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (WakeFd < 0) {
    Err = std::string("eventfd: ") + std::strerror(errno);
    return false;
  }
  watch(EpollFd, EPOLL_CTL_ADD, WakeFd, kWakeKey, /*WantRead=*/true,
        /*WantWrite=*/false);
  Thread = std::thread([this] { run(); });
  return true;
}

void EventLoop::join() {
  if (Thread.joinable())
    Thread.join();
}

void EventLoop::wake() {
  uint64_t One = 1;
  (void)!::write(WakeFd, &One, sizeof(One));
}

void EventLoop::adoptConnection(int Fd, std::string Peer) {
  {
    std::lock_guard<std::mutex> Lock(ControlMu);
    if (!Exited) {
      NewConns.emplace_back(Fd, std::move(Peer));
      wake();
      return;
    }
  }
  ::close(Fd); // loop already gone (late accept during drain)
}

void EventLoop::sendResponse(Response R) {
  if (Thread.get_id() == std::this_thread::get_id()) {
    applyResponse(std::move(R));
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(ControlMu);
    if (!Exited) {
      Responses.push_back(std::move(R));
      wake();
      return;
    }
  }
  // The loop exited before this worker finished (its connection is long
  // gone): finalize on the caller's thread so the telemetry still lands.
  if (R.Ctx)
    Handler.onResponseDone(std::move(R.Ctx), /*Aborted=*/true,
                           /*Counted=*/false);
}

void EventLoop::beginDrain() {
  {
    std::lock_guard<std::mutex> Lock(ControlMu);
    if (Exited)
      return;
    DrainRequested = true;
  }
  wake();
}

void EventLoop::run() {
  epoll_event Evs[64];
  while (!(Draining && Conns.empty())) {
    int N = ::epoll_wait(EpollFd, Evs, 64, pollTimeoutMs(obs::nowNs()));
    if (N < 0 && errno == EINTR)
      N = 0;
    if (N < 0) {
      // epoll broke (can only mean corrupted fd state); bail rather
      // than spin — the daemon's drain will still join this thread.
      if constexpr (obs::kEnabled)
        obs::log()
            .event(obs::LogLevel::Error, "service.loop_failed")
            .num("loop", Cfg.Index)
            .str("error", std::strerror(errno));
      break;
    }
    obs::metrics().counter("service.loop.wakeups").inc();
    if (N > 0)
      obs::metrics().counter("service.loop.events").add(
          static_cast<uint64_t>(N));
    // Drain the wakeup fd BEFORE consuming the control queue. The other
    // order loses wakeups: a worker that posts a response between the
    // queue swap and the eventfd read would have its wake swallowed here
    // while its response stays queued — and with every thread then idle,
    // nothing ever flushes it. Drained first, a post-swap wake leaves the
    // eventfd readable and the next wait() returns immediately.
    for (int I = 0; I < N; ++I) {
      if (Evs[I].data.u64 == kWakeKey) {
        char Buf[64];
        while (::read(WakeFd, Buf, sizeof(Buf)) > 0)
          ;
        break;
      }
    }
    drainControl();
    for (int I = 0; I < N; ++I) {
      uint64_t Key = Evs[I].data.u64;
      uint32_t E = Evs[I].events;
      if (Key == kWakeKey)
        continue;
      auto It = Conns.find(Key);
      if (It == Conns.end())
        continue; // closed earlier this iteration
      Conn &C = *It->second;
      if (E & EPOLLERR) {
        abortConn(C, "socket error");
        continue;
      }
      if (E & EPOLLOUT) {
        writeOut(C);
        if (Conns.find(Key) == Conns.end())
          continue; // writeOut closed it
      }
      if (E & (EPOLLIN | EPOLLRDHUP | EPOLLHUP))
        readable(C);
    }
    sweepReadDeadlines(obs::nowNs());
    if (FireShutdownOp) {
      FireShutdownOp = false;
      Handler.onShutdownOp();
    }
  }

  // Late worker completions for connections that died before their jobs
  // finished would otherwise sit in the control queue forever.
  std::vector<Response> Late;
  {
    std::lock_guard<std::mutex> Lock(ControlMu);
    Exited = true;
    Late.swap(Responses);
  }
  for (Response &R : Late)
    if (R.Ctx)
      Handler.onResponseDone(std::move(R.Ctx), /*Aborted=*/true,
                             /*Counted=*/false);
}

int EventLoop::pollTimeoutMs(uint64_t NowNs) const {
  if (!Cfg.ReadTimeoutMs)
    return -1;
  uint64_t LimitNs = uint64_t(Cfg.ReadTimeoutMs) * 1'000'000ull;
  int64_t Best = -1;
  for (const auto &[Id, C] : Conns) {
    if (C->ReadClosed || !C->Asm.midFrame())
      continue;
    uint64_t DeadlineNs = C->LastReadNs + LimitNs;
    int64_t RemainMs =
        DeadlineNs > NowNs
            ? static_cast<int64_t>((DeadlineNs - NowNs) / 1'000'000ull) + 1
            : 0;
    Best = Best < 0 ? RemainMs : std::min(Best, RemainMs);
  }
  return static_cast<int>(Best);
}

void EventLoop::drainControl() {
  std::vector<std::pair<int, std::string>> NC;
  std::vector<Response> Rs;
  bool Drain = false;
  {
    std::lock_guard<std::mutex> Lock(ControlMu);
    NC.swap(NewConns);
    Rs.swap(Responses);
    if (DrainRequested) {
      DrainRequested = false;
      Drain = true;
    }
  }
  for (auto &[Fd, Peer] : NC)
    addConn(Fd, std::move(Peer));
  for (Response &R : Rs)
    applyResponse(std::move(R));
  if (Drain && !Draining) {
    Draining = true;
    // Half-close every read side: no new frames; dispatched requests
    // complete and their responses flush before the connection closes.
    std::vector<uint64_t> Ids;
    Ids.reserve(Conns.size());
    for (const auto &[Id, C] : Conns)
      Ids.push_back(Id);
    for (uint64_t Id : Ids) {
      auto It = Conns.find(Id);
      if (It == Conns.end())
        continue;
      Conn &C = *It->second;
      ::shutdown(C.Fd, SHUT_RD);
      C.ReadClosed = true;
      updateInterest(C);
      maybeClose(C);
    }
  }
}

void EventLoop::addConn(int Fd, std::string Peer) {
  if (Draining) {
    ::close(Fd);
    return;
  }
  setNonBlocking(Fd);
  if (Peer.compare(0, 4, "tcp:") == 0) {
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  }
  auto C = std::make_unique<Conn>();
  C->Fd = Fd;
  C->Id = NextConnId++;
  C->Peer = std::move(Peer);
  C->LastReadNs = obs::nowNs();
  // Level-triggered: bytes the client wrote before this ADD are reported
  // by the next epoll_wait.
  watch(EpollFd, EPOLL_CTL_ADD, Fd, C->Id, /*WantRead=*/true,
        /*WantWrite=*/false);
  uint64_t Id = C->Id;
  Conns.emplace(Id, std::move(C));
}

void EventLoop::applyResponse(Response R) {
  auto It = Conns.find(R.ConnId);
  if (It == Conns.end()) {
    if (R.Ctx)
      Handler.onResponseDone(std::move(R.Ctx), /*Aborted=*/true,
                             /*Counted=*/false);
    return;
  }
  Conn &C = *It->second;
  for (Pending &Slot : C.Pendings) {
    if (Slot.Seq != R.Seq)
      continue;
    Slot.Frame = std::move(R.Frame);
    Slot.Ctx = std::move(R.Ctx);
    Slot.Counted = R.Counted;
    Slot.CloseAfter = R.CloseAfter;
    Slot.ShutdownAfter = R.ShutdownAfter;
    Slot.Ready = true;
    flushPendings(C);
    return;
  }
  // No slot (aborted connection reused nothing — ids are never reused, so
  // this is a response for a slot dropped by abortConn).
  if (R.Ctx)
    Handler.onResponseDone(std::move(R.Ctx), /*Aborted=*/true,
                           /*Counted=*/false);
}

void EventLoop::readable(Conn &C) {
  if (C.ReadClosed) {
    maybeClose(C);
    return;
  }
  char Buf[65536];
  std::vector<std::string> Frames;
  std::string FrameErr;
  bool Eof = false, Fatal = false;
  for (;;) {
    ssize_t N = doRead(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.LastReadNs = obs::nowNs();
      if (!C.Asm.feed(Buf, static_cast<size_t>(N), Frames, FrameErr)) {
        Fatal = true;
        break;
      }
      // Until EAGAIN: one wakeup takes a pipelined burst (or a frame
      // larger than Buf) in full, so its frames dispatch as one batch
      // instead of costing an epoll_wait round trip per read.
      continue;
    }
    if (N == 0) {
      Eof = true;
      break;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    abortConn(C, "read");
    return;
  }

  if (!Frames.empty()) {
    obs::metrics().counter("service.loop.frames").add(Frames.size());
    obs::metrics().counter("service.loop.batches").inc();
    uint64_t Id = C.Id;
    std::string Peer = C.Peer;
    for (std::string &F : Frames) {
      // onFrame may answer synchronously, which can flush, fail the
      // write, and close the connection — re-find it for every frame.
      auto It = Conns.find(Id);
      if (It == Conns.end())
        return;
      Conn &Cur = *It->second;
      uint64_t Seq = Cur.NextSeq++;
      Pending Slot;
      Slot.Seq = Seq;
      Cur.Pendings.push_back(std::move(Slot));
      Handler.onFrame(*this, Id, Seq, std::move(F), Peer);
    }
    auto It = Conns.find(Id);
    if (It == Conns.end())
      return;
  }

  if (Fatal) {
    // Oversized length prefix: answer exactly like the blocking path,
    // then drop the connection — framing is unrecoverable.
    if constexpr (obs::kEnabled)
      obs::log()
          .event(obs::LogLevel::Warn, "service.bad_frame")
          .str("peer", C.Peer)
          .str("error", FrameErr);
    Pending Slot;
    Slot.Seq = C.NextSeq++;
    Slot.Ready = true;
    Slot.Counted = false;
    Slot.CloseAfter = true;
    Slot.Frame = frameJson(errorResponse(FrameErr));
    C.Pendings.push_back(std::move(Slot));
    ::shutdown(C.Fd, SHUT_RD);
    C.ReadClosed = true;
    updateInterest(C);
    flushPendings(C);
    return;
  }
  if (Eof) {
    C.ReadClosed = true;
    updateInterest(C);
    maybeClose(C);
  }
}

void EventLoop::flushPendings(Conn &C) {
  while (!C.Pendings.empty() && C.Pendings.front().Ready) {
    Pending Slot = std::move(C.Pendings.front());
    C.Pendings.pop_front();
    C.QueuedBytes += Slot.Frame.size();
    if (C.OutBuf.empty())
      C.OutBuf = std::move(Slot.Frame);
    else
      C.OutBuf += Slot.Frame;
    InflightWrite W;
    W.EndOffset = C.QueuedBytes;
    W.Counted = Slot.Counted;
    W.ShutdownAfter = Slot.ShutdownAfter;
    W.Ctx = std::move(Slot.Ctx);
    C.Flushing.push_back(std::move(W));
    if (Slot.CloseAfter)
      C.CloseAfterFlush = true;
  }
  writeOut(C);
}

void EventLoop::writeOut(Conn &C) {
  while (C.OutOff < C.OutBuf.size()) {
    ssize_t N =
        doWrite(C.Fd, C.OutBuf.data() + C.OutOff, C.OutBuf.size() - C.OutOff);
    if (N > 0) {
      C.OutOff += static_cast<size_t>(N);
      C.WrittenBytes += static_cast<uint64_t>(N);
      retireFlushed(C);
      continue;
    }
    if (N == 0)
      return;
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!C.WantWrite) {
        C.WantWrite = true;
        updateInterest(C);
      }
      return;
    }
    abortConn(C, "write");
    return;
  }
  // Fully drained: free the buffer (usually a worker's frame, which the
  // next response replaces anyway) and disarm EPOLLOUT.
  std::string().swap(C.OutBuf);
  C.OutOff = 0;
  if (C.WantWrite) {
    C.WantWrite = false;
    updateInterest(C);
  }
  maybeClose(C);
}

void EventLoop::retireFlushed(Conn &C) {
  while (!C.Flushing.empty() &&
         C.Flushing.front().EndOffset <= C.WrittenBytes) {
    InflightWrite W = std::move(C.Flushing.front());
    C.Flushing.pop_front();
    if (W.ShutdownAfter) {
      FireShutdownOp = true;
      C.CloseAfterFlush = true;
    }
    Handler.onResponseDone(std::move(W.Ctx), /*Aborted=*/false, W.Counted);
  }
}

void EventLoop::maybeClose(Conn &C) {
  bool Idle = C.Pendings.empty() && C.Flushing.empty() &&
              C.OutOff >= C.OutBuf.size();
  if (Idle && (C.CloseAfterFlush || C.ReadClosed))
    closeConn(C);
}

void EventLoop::abortConn(Conn &C, const char *Reason) {
  obs::metrics().counter("service.aborted").inc();
  if constexpr (obs::kEnabled)
    obs::log()
        .event(obs::LogLevel::Warn, "service.conn_aborted")
        .str("peer", C.Peer)
        .str("reason", Reason)
        .num("loop", Cfg.Index);
  // Responses mid-write or queued-but-unflushed die with the connection;
  // their telemetry records the abort. Slots whose job is still running
  // finalize later, when the worker's response finds no connection.
  for (InflightWrite &W : C.Flushing)
    if (W.Ctx)
      Handler.onResponseDone(std::move(W.Ctx), /*Aborted=*/true,
                             /*Counted=*/false);
  C.Flushing.clear();
  for (Pending &Slot : C.Pendings)
    if (Slot.Ctx)
      Handler.onResponseDone(std::move(Slot.Ctx), /*Aborted=*/true,
                             /*Counted=*/false);
  C.Pendings.clear();
  closeConn(C);
}

void EventLoop::closeConn(Conn &C) {
  if constexpr (obs::kEnabled)
    obs::log()
        .event(obs::LogLevel::Debug, "service.disconnect")
        .str("peer", C.Peer);
  ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, C.Fd, nullptr);
  ::close(C.Fd);
  Conns.erase(C.Id); // destroys C — callers must not touch it again
}

void EventLoop::updateInterest(Conn &C) {
  watch(EpollFd, EPOLL_CTL_MOD, C.Fd, C.Id, /*WantRead=*/!C.ReadClosed,
        C.WantWrite);
}

void EventLoop::sweepReadDeadlines(uint64_t NowNs) {
  if (!Cfg.ReadTimeoutMs)
    return;
  uint64_t LimitNs = uint64_t(Cfg.ReadTimeoutMs) * 1'000'000ull;
  std::vector<uint64_t> Timed;
  for (const auto &[Id, C] : Conns)
    if (!C->ReadClosed && C->Asm.midFrame() &&
        NowNs - C->LastReadNs >= LimitNs)
      Timed.push_back(Id);
  for (uint64_t Id : Timed) {
    auto It = Conns.find(Id);
    if (It == Conns.end())
      continue;
    Conn &C = *It->second;
    obs::metrics().counter("service.read_timeouts").inc();
    if constexpr (obs::kEnabled)
      obs::log()
          .event(obs::LogLevel::Warn, "service.read_timeout")
          .str("peer", C.Peer)
          .num("timeout_ms", Cfg.ReadTimeoutMs)
          .num("pending_bytes", C.Asm.pendingBytes());
    Pending Slot;
    Slot.Seq = C.NextSeq++;
    Slot.Ready = true;
    Slot.Counted = false;
    Slot.CloseAfter = true;
    Slot.Frame = frameJson(errorResponse("read timeout"));
    C.Pendings.push_back(std::move(Slot));
    ::shutdown(C.Fd, SHUT_RD);
    C.ReadClosed = true;
    updateInterest(C);
    flushPendings(C);
  }
}

ssize_t EventLoop::doRead(int Fd, char *Buf, size_t N) {
  if (Cfg.Faults && Cfg.Faults->Fail) {
    if (int E = Cfg.Faults->Fail("read", Fd)) {
      errno = E;
      return -1;
    }
  }
  return ::read(Fd, Buf, N);
}

ssize_t EventLoop::doWrite(int Fd, const char *Buf, size_t N) {
  if (Cfg.Faults) {
    if (Cfg.Faults->Fail) {
      if (int E = Cfg.Faults->Fail("write", Fd)) {
        errno = E;
        return -1;
      }
    }
    if (Cfg.Faults->ShortWriteBytes)
      N = std::min(N, Cfg.Faults->ShortWriteBytes);
  }
  // MSG_NOSIGNAL: a peer that resets mid-write must surface as EPIPE to
  // abortConn, not raise SIGPIPE — the loop cannot assume the embedding
  // process ignores it (the daemon does; tests and embedders may not).
  return ::send(Fd, Buf, N, MSG_NOSIGNAL);
}
