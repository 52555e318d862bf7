//===- service/Protocol.h - Scheduling request wire protocol ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-oriented request protocol of the scheduling service
/// (docs/SERVICE.md has the full grammar). Requests are plain-text
/// frames built from the existing textio payload formats; every
/// response is exactly one JSON line written through support/Json.
///
/// Frame grammar (one request):
///
///   SCHED id=<token> [objective=<name>] [dep=<style>] [time=<sec>]
///         [nodes=<count>] [maxii=<delta>] [machine=<builtin>]
///   MACHINE <nlines>          ; omitted when machine=<builtin> is given
///   <nlines of machine text>  ; textio/MachineFormat.h grammar
///   DDG <nlines>
///   <nlines of ddg text>      ; textio/DdgFormat.h grammar
///   END
///
/// plus the single-line commands PING, STATS and QUIT. Parsing is
/// hardened: oversized lines or payloads, bad counts, unknown keys,
/// truncated frames and invalid enum tokens all come back as Error
/// frames carrying a structured message — the daemon replies and keeps
/// serving (assertions stay ON; malformed input must never reach one).
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SERVICE_PROTOCOL_H
#define MODSCHED_SERVICE_PROTOCOL_H

#include "sched/Problem.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace modsched {
namespace service {

/// Protocol version stamped into every response ("proto" key).
inline constexpr int ProtocolVersion = 1;

/// Hard limits the frame reader enforces before any payload parsing.
/// Exceeding one is a fatal frame error: the reader cannot resync
/// reliably past unbounded garbage, so the server closes the stream
/// after the error reply.
struct ProtocolLimits {
  /// Longest accepted request line, bytes (newline excluded).
  std::size_t MaxLineBytes = 64 * 1024;
  /// Most payload lines in one MACHINE / DDG section.
  int MaxPayloadLines = 4096;
  /// Total payload bytes in one frame.
  std::size_t MaxPayloadBytes = 1 << 20;
};

/// One parsed SCHED request: validated header knobs plus raw payload
/// text (payloads are parsed against each other later, on the worker).
struct Request {
  std::string Id;
  Objective Obj = Objective::MinReg;
  DependenceStyle DepStyle = DependenceStyle::Structured;
  /// Requested wall-clock budget; <= 0 = server default. The server
  /// clamps to its configured maximum either way.
  double TimeLimitSeconds = 0.0;
  /// Requested node budget; <= 0 = server default.
  std::int64_t NodeLimit = 0;
  /// Requested MaxIiIncrease; < 0 = server default.
  int MaxIiIncrease = -1;
  /// Builtin machine name ("example3" / "cydra" / "vliw2"); empty when
  /// the frame carried a MACHINE section instead.
  std::string BuiltinMachine;
  /// Raw textio machine description (empty with BuiltinMachine).
  std::string MachineText;
  /// Raw textio .ddg loop description.
  std::string DdgText;
};

/// What the framing layer produced.
enum class FrameKind {
  Sched, ///< A complete, header-valid SCHED request.
  Ping,  ///< PING keepalive.
  Stats, ///< STATS snapshot request.
  Quit,  ///< QUIT — client is done with this connection.
  Eof,   ///< Clean end of stream between frames.
  Error, ///< Malformed input; Error holds the message.
};

/// One frame read from the stream.
struct Frame {
  FrameKind Kind = FrameKind::Eof;
  Request Req;       ///< Valid when Kind == Sched.
  std::string Id;    ///< Best-effort request id for error replies.
  std::string Error; ///< Valid when Kind == Error.
  /// Fatal errors (oversized line / payload overflow / truncation) mean
  /// the reader lost framing; the server replies then drops the stream.
  /// Non-fatal errors consumed through END and the stream is reusable.
  bool Fatal = false;
};

/// Reads one frame. Blank lines between frames are skipped. Never
/// throws and never aborts on malformed input.
Frame readFrame(std::istream &In, const ProtocolLimits &Limits);

/// Parses an objective name ("noobj" / "minreg" / "minbuff" /
/// "minlife" / "minsl"); false on unknown tokens.
bool parseObjectiveName(std::string_view Name, Objective &Obj);

/// Parses a dependence-style name ("structured" / "structured_loose" /
/// "traditional"); false on unknown tokens.
bool parseDepStyleName(std::string_view Name, DependenceStyle &Style);

/// One-line JSON error reply for request \p Id (may be empty).
std::string errorResponse(const std::string &Id, const std::string &Message);

/// One-line JSON load-shed reply: come back in \p RetryAfterMs.
std::string retryAfterResponse(const std::string &Id, int RetryAfterMs);

/// One-line JSON PING reply.
std::string pingResponse();

} // namespace service
} // namespace modsched

#endif // MODSCHED_SERVICE_PROTOCOL_H
