//===--- EventLoop.h - Epoll-driven connection event loop -------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's async service tier: N event-loop threads, each owning an
/// level-triggered epoll instance, an eventfd for wakeups, and a set of
/// non-blocking connections. The accept thread hands fresh sockets to a
/// loop round-robin; from then on every byte of that connection is read,
/// assembled (service/Protocol.h FrameAssembler), dispatched, and written
/// back on that one loop thread — no thread per connection, no blocking
/// read parked on a socket.
///
/// Request flow: readable fd → read() until EAGAIN → feed the frame
/// assembler → one Pending slot per completed frame, in arrival order →
/// EventLoopHandler::onFrame. Cheap ops answer synchronously on the loop
/// thread; analyze jobs go to the worker pool and their responses come
/// back through sendResponse(), which is thread-safe (posts to the loop's
/// control queue and writes the wakeup fd). Responses always flush in
/// request order per connection — a pipelined client that sends requests
/// A B C gets answers A B C even when B's analysis finishes first.
///
/// Write path: ready responses arrive framed (length prefix and JSON in
/// one string), move into an empty per-connection output buffer or
/// append to a busy one, and are written until EAGAIN; a partial write arms EPOLLOUT. The
/// loop tracks cumulative queued/written byte counts so each response's
/// telemetry context is finalized exactly when its last byte reaches the
/// kernel — and finalized as *aborted* when the peer vanishes mid-write,
/// which must never wedge the loop (the fault-injection tests drive
/// exactly this).
///
/// Slow-loris defense: a connection that has started a frame but stops
/// feeding bytes for ReadTimeoutMs gets a "read timeout" error response
/// and is closed. Idle connections *between* frames are left alone.
///
/// Drain: beginDrain() half-closes every connection's read side. Frames
/// already dispatched finish, their responses flush, and the loop thread
/// exits once the last connection closes — zero in-flight drops.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_SERVICE_EVENTLOOP_H
#define LOCKIN_SERVICE_EVENTLOOP_H

#include "obs/RequestTelemetry.h"
#include "service/Protocol.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace lockin {
namespace service {

/// Test-only fault injection, threaded through ServerOptions. The loop
/// consults Fail before every read/write syscall; a nonzero return is the
/// errno the syscall pretends to fail with (EAGAIN, ECONNRESET, EPIPE,
/// ...). ShortWriteBytes caps each write() so partial-write handling is
/// exercised deterministically.
struct FaultInjector {
  std::function<int(const char *Op, int Fd)> Fail;
  size_t ShortWriteBytes = 0;
};

class EventLoop;

/// The server-side of the loop: frame dispatch and request finalization.
/// All callbacks must be thread-safe — onFrame runs on loop threads,
/// onResponseDone on whichever thread retires the response (loop thread
/// normally; a worker thread when the connection died first and the loop
/// already exited).
class EventLoopHandler {
public:
  virtual ~EventLoopHandler() = default;

  /// One complete frame arrived on \p ConnId (sequence \p Seq within the
  /// connection). Must eventually cause exactly one sendResponse for
  /// (ConnId, Seq) — synchronously for cheap ops, from a worker for
  /// analyze jobs.
  virtual void onFrame(EventLoop &Loop, uint64_t ConnId, uint64_t Seq,
                       std::string Frame, const std::string &Peer) = 0;

  /// A response retired: fully flushed (Aborted=false) or dropped because
  /// the connection died first (Aborted=true). \p Ctx may be null (no
  /// telemetry); \p Counted mirrors Response::Counted and gates the
  /// requests-served counter.
  virtual void onResponseDone(std::unique_ptr<obs::RequestContext> Ctx,
                              bool Aborted, bool Counted) = 0;

  /// A shutdown op's response has flushed; begin the daemon drain.
  virtual void onShutdownOp() = 0;
};

class EventLoop {
public:
  struct Config {
    unsigned Index = 0;        ///< loop number, for logs
    unsigned ReadTimeoutMs = 0; ///< mid-frame read deadline; 0 = off
    std::shared_ptr<FaultInjector> Faults;
  };

  /// A response for one (ConnId, Seq) slot. Frame is the wire bytes:
  /// the length prefix and the JSON text (service::frameJson).
  struct Response {
    uint64_t ConnId = 0;
    uint64_t Seq = 0;
    std::string Frame;
    std::unique_ptr<obs::RequestContext> Ctx;
    bool Counted = true;       ///< increments requests-served when flushed
    bool CloseAfter = false;   ///< close the connection once flushed
    bool ShutdownAfter = false; ///< fire onShutdownOp once flushed
  };

  EventLoop(Config C, EventLoopHandler &H);
  ~EventLoop();
  EventLoop(const EventLoop &) = delete;
  EventLoop &operator=(const EventLoop &) = delete;

  /// Creates the epoll instance + wakeup fd and spawns the loop thread.
  bool start(std::string &Err);
  /// Joins the loop thread (returns after drain completes).
  void join();

  /// Hands a fresh accepted socket to this loop (thread-safe). The loop
  /// makes it non-blocking and starts reading.
  void adoptConnection(int Fd, std::string Peer);

  /// Delivers a response for a dispatched frame (thread-safe). If the
  /// connection already died, the context is finalized as aborted; if
  /// the loop already exited (late worker completion during drain), the
  /// finalization happens on the caller's thread.
  void sendResponse(Response R);

  /// Half-closes every connection's read side; the loop exits once all
  /// in-flight responses have flushed and every connection closed.
  void beginDrain();

  unsigned index() const { return Cfg.Index; }

private:
  struct Pending {
    uint64_t Seq = 0;
    bool Ready = false;
    bool Counted = true;
    bool CloseAfter = false;
    bool ShutdownAfter = false;
    std::string Frame;
    std::unique_ptr<obs::RequestContext> Ctx;
  };

  /// A response whose framed bytes sit in OutBuf: EndOffset is the
  /// cumulative queued-byte offset of its last byte; once WrittenBytes
  /// crosses it the response has fully reached the kernel.
  struct InflightWrite {
    uint64_t EndOffset = 0;
    bool Counted = true;
    bool ShutdownAfter = false;
    std::unique_ptr<obs::RequestContext> Ctx;
  };

  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    std::string Peer;
    FrameAssembler Asm;
    uint64_t NextSeq = 0;
    std::deque<Pending> Pendings; ///< arrival order; front flushes first
    std::string OutBuf;
    size_t OutOff = 0; ///< consumed prefix of OutBuf
    uint64_t QueuedBytes = 0;  ///< cumulative framed bytes queued
    uint64_t WrittenBytes = 0; ///< cumulative bytes written to the kernel
    std::deque<InflightWrite> Flushing;
    bool WantWrite = false; ///< EPOLLOUT armed
    bool ReadClosed = false;
    bool CloseAfterFlush = false;
    uint64_t LastReadNs = 0;
  };

  void run();
  void wake();
  void drainControl();
  void applyResponse(Response R);
  void addConn(int Fd, std::string Peer);
  void readable(Conn &C);
  void flushPendings(Conn &C);
  void writeOut(Conn &C);
  void retireFlushed(Conn &C);
  void maybeClose(Conn &C);
  void abortConn(Conn &C, const char *Reason);
  void closeConn(Conn &C);
  void updateInterest(Conn &C);
  void sweepReadDeadlines(uint64_t NowNs);
  int pollTimeoutMs(uint64_t NowNs) const;
  ssize_t doRead(int Fd, char *Buf, size_t N);
  ssize_t doWrite(int Fd, const char *Buf, size_t N);

  Config Cfg;
  EventLoopHandler &Handler;
  std::thread Thread;

  int EpollFd = -1; ///< keys are connection ids; kWakeKey is WakeFd
  int WakeFd = -1;  ///< eventfd

  std::unordered_map<uint64_t, std::unique_ptr<Conn>> Conns;
  uint64_t NextConnId = 1;
  bool Draining = false;
  bool FireShutdownOp = false; ///< a shutdown op's response just flushed

  std::mutex ControlMu;
  std::vector<std::pair<int, std::string>> NewConns;
  std::vector<Response> Responses;
  bool DrainRequested = false;
  bool Exited = false; ///< loop thread done; late responses finalize inline
};

} // namespace service
} // namespace lockin

#endif // LOCKIN_SERVICE_EVENTLOOP_H
