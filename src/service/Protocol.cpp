//===- service/Protocol.cpp - Scheduling request wire protocol ------------===//

#include "service/Protocol.h"

#include "support/Json.h"
#include "support/TextScan.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <istream>
#include <limits>

using namespace modsched;
using namespace modsched::service;

namespace {

/// Appends one line to \p Out with a hard cap of \p MaxBytes appended
/// bytes, reading straight from the stream buffer. CRs are dropped
/// wherever they appear and do not count toward the cap. Returns false at
/// EOF when nothing was appended. A longer line sets \p Overflow and is
/// consumed through the next newline so the stream position stays
/// line-aligned. Reaching EOF sets eofbit and failbit, as istream::get()
/// does, and a stream that is no longer good() reads as EOF.
bool appendLineCapped(std::istream &In, std::string &Out, std::size_t MaxBytes,
                      bool &Overflow) {
  using Traits = std::istream::traits_type;
  Overflow = false;
  if (!In.good()) {
    In.setstate(std::ios::failbit);
    return false;
  }
  std::streambuf &Buf = *In.rdbuf();
  std::size_t Start = Out.size();
  int C = 0;
  while ((C = Buf.sbumpc()) != Traits::eof()) {
    if (C == '\n')
      return true;
    if (C == '\r')
      continue;
    if (Out.size() - Start >= MaxBytes) {
      Overflow = true;
      while ((C = Buf.sbumpc()) != Traits::eof() && C != '\n')
        ;
      if (C == Traits::eof())
        In.setstate(std::ios::eofbit | std::ios::failbit);
      return true;
    }
    Out.push_back(static_cast<char>(C));
  }
  In.setstate(std::ios::eofbit | std::ios::failbit);
  return Out.size() != Start;
}

/// Reads one line into \p Line (see appendLineCapped).
bool getLineCapped(std::istream &In, std::string &Line, std::size_t MaxBytes,
                   bool &Overflow) {
  Line.clear();
  return appendLineCapped(In, Line, MaxBytes, Overflow);
}

bool parsePositiveDouble(std::string_view Text, double &Out) {
  if (Text.empty())
    return false;
  // strtod's grammar (hex floats, inf/nan, leading whitespace) is the
  // contract; it needs a NUL-terminated copy.
  std::string S(Text);
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (End != S.c_str() + S.size() || !(V > 0) || V > 1e9)
    return false;
  Out = V;
  return true;
}

/// Digits only; values past INT64_MAX saturate, as strtoll does.
bool parsePositiveInt64(std::string_view S, std::int64_t &Out) {
  if (S.empty())
    return false;
  for (char C : S)
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
  std::int64_t V = 0;
  if (std::from_chars(S.data(), S.data() + S.size(), V).ec != std::errc())
    V = std::numeric_limits<std::int64_t>::max();
  if (V <= 0)
    return false;
  Out = V;
  return true;
}

bool validIdToken(std::string_view S) {
  if (S.empty() || S.size() > 128)
    return false;
  for (char C : S)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '-' &&
        C != '_' && C != '.' && C != ':')
      return false;
  return true;
}

bool validBuiltinMachine(std::string_view S) {
  return S == "example3" || S == "cydra" || S == "vliw2";
}

Frame makeError(std::string Id, std::string Message, bool Fatal = false) {
  Frame F;
  F.Kind = FrameKind::Error;
  F.Id = std::move(Id);
  F.Error = std::move(Message);
  F.Fatal = Fatal;
  return F;
}

/// Consumes lines until END or EOF so a non-fatal header error leaves
/// the stream frame-aligned. Bounded: gives up (fatally) after the
/// payload-line budget, since a frame this malformed may never END.
void skipToEnd(std::istream &In, const ProtocolLimits &Limits, Frame &F) {
  std::string Line;
  bool Overflow = false;
  for (int N = 0; N <= 2 * Limits.MaxPayloadLines; ++N) {
    if (!getLineCapped(In, Line, Limits.MaxLineBytes, Overflow))
      return;
    if (Overflow) {
      F.Fatal = true;
      return;
    }
    if (Line == "END")
      return;
  }
  F.Fatal = true;
}

/// Parses the SCHED header tokens left in \p Toks into \p Req. Returns
/// empty string on success, the error message otherwise.
std::string parseSchedHeader(TokenReader &Toks, Request &Req) {
  std::string_view Tok;
  while (Toks.next(Tok)) {
    std::size_t Eq = Tok.find('=');
    if (Eq == std::string_view::npos || Eq == 0 || Eq + 1 >= Tok.size())
      return "malformed header token '" + std::string(Tok) +
             "' (want key=value)";
    std::string_view Key = Tok.substr(0, Eq);
    std::string_view Val = Tok.substr(Eq + 1);
    if (Key == "id") {
      if (!validIdToken(Val))
        return "invalid request id";
      Req.Id = Val;
    } else if (Key == "objective") {
      if (!parseObjectiveName(Val, Req.Obj))
        return "unknown objective '" + std::string(Val) +
               "' (want noobj|minreg|minbuff|minlife|minsl)";
    } else if (Key == "dep") {
      if (!parseDepStyleName(Val, Req.DepStyle))
        return "unknown dependence style '" + std::string(Val) +
               "' (want structured|structured_loose|traditional)";
    } else if (Key == "time") {
      if (!parsePositiveDouble(Val, Req.TimeLimitSeconds))
        return "invalid time budget '" + std::string(Val) + "'";
    } else if (Key == "nodes") {
      if (!parsePositiveInt64(Val, Req.NodeLimit))
        return "invalid node budget '" + std::string(Val) + "'";
    } else if (Key == "maxii") {
      std::int64_t V = 0;
      if (!parsePositiveInt64(Val, V) || V > 4096)
        return "invalid maxii '" + std::string(Val) + "'";
      Req.MaxIiIncrease = static_cast<int>(V);
    } else if (Key == "machine") {
      if (!validBuiltinMachine(Val))
        return "unknown builtin machine '" + std::string(Val) +
               "' (want example3|cydra|vliw2)";
      Req.BuiltinMachine = Val;
    } else {
      return "unknown header key '" + std::string(Key) + "'";
    }
  }
  if (Req.Id.empty())
    return "missing id=<token>";
  return "";
}

/// Reads a counted payload section ("MACHINE <n>" / "DDG <n>" already
/// consumed; \p Count validated by the caller), appending it to \p Out.
/// Returns empty string on success. Truncation (EOF mid-payload) and
/// oversize are fatal.
std::string readPayload(std::istream &In, const ProtocolLimits &Limits,
                        int Count, std::size_t &BudgetBytes,
                        std::string &Out, bool &Fatal) {
  bool Overflow = false;
  for (int I = 0; I < Count; ++I) {
    std::size_t Start = Out.size();
    if (!appendLineCapped(In, Out, Limits.MaxLineBytes, Overflow)) {
      Fatal = true;
      return "truncated payload (EOF before all lines arrived)";
    }
    if (Overflow) {
      Fatal = true;
      return "payload line exceeds the line-size limit";
    }
    std::size_t Bytes = Out.size() - Start + 1;
    if (Bytes > BudgetBytes) {
      Fatal = true;
      return "payload exceeds the per-frame byte limit";
    }
    BudgetBytes -= Bytes;
    Out += '\n';
  }
  return "";
}

} // namespace

bool modsched::service::parseObjectiveName(std::string_view Name,
                                           Objective &Obj) {
  if (Name == "noobj")
    Obj = Objective::None;
  else if (Name == "minreg")
    Obj = Objective::MinReg;
  else if (Name == "minbuff")
    Obj = Objective::MinBuff;
  else if (Name == "minlife")
    Obj = Objective::MinLife;
  else if (Name == "minsl")
    Obj = Objective::MinSL;
  else
    return false;
  return true;
}

bool modsched::service::parseDepStyleName(std::string_view Name,
                                          DependenceStyle &Style) {
  if (Name == "structured")
    Style = DependenceStyle::Structured;
  else if (Name == "structured_loose")
    Style = DependenceStyle::StructuredLoose;
  else if (Name == "traditional")
    Style = DependenceStyle::Traditional;
  else
    return false;
  return true;
}

Frame modsched::service::readFrame(std::istream &In,
                                   const ProtocolLimits &Limits) {
  std::string Line;
  bool Overflow = false;
  // Skip blank lines between frames.
  do {
    if (!getLineCapped(In, Line, Limits.MaxLineBytes, Overflow)) {
      Frame F;
      F.Kind = FrameKind::Eof;
      return F;
    }
    if (Overflow)
      return makeError("", "request line exceeds the line-size limit",
                       /*Fatal=*/true);
  } while (Line.empty());

  TokenReader Toks(Line, Blanks::SpaceTab, /*HashComments=*/false);
  std::string_view Verb;
  if (!Toks.next(Verb))
    return makeError("", "empty request line");

  if (Verb == "PING") {
    Frame F;
    F.Kind = FrameKind::Ping;
    return F;
  }
  if (Verb == "STATS") {
    Frame F;
    F.Kind = FrameKind::Stats;
    return F;
  }
  if (Verb == "QUIT") {
    Frame F;
    F.Kind = FrameKind::Quit;
    return F;
  }
  if (Verb != "SCHED") {
    return makeError("", "unknown verb '" + std::string(Verb) +
                             "' (want SCHED|PING|STATS|QUIT)");
  }

  Frame F;
  F.Kind = FrameKind::Sched;
  if (std::string Err = parseSchedHeader(Toks, F.Req); !Err.empty()) {
    Frame E = makeError(F.Req.Id, Err);
    skipToEnd(In, Limits, E);
    return E;
  }
  F.Id = F.Req.Id;

  // Payload sections in order: optional MACHINE, required DDG, END.
  std::size_t BudgetBytes = Limits.MaxPayloadBytes;
  bool SawDdg = false;
  for (;;) {
    if (!getLineCapped(In, Line, Limits.MaxLineBytes, Overflow))
      return makeError(F.Id, "truncated frame (EOF before END)",
                       /*Fatal=*/true);
    if (Overflow)
      return makeError(F.Id, "request line exceeds the line-size limit",
                       /*Fatal=*/true);
    if (Line == "END")
      break;
    std::string_view Sec[2];
    if (splitTokens(Line, Sec, Blanks::SpaceTab, /*HashComments=*/false) !=
            2 ||
        (Sec[0] != "MACHINE" && Sec[0] != "DDG")) {
      Frame E = makeError(F.Id, "expected 'MACHINE <n>', 'DDG <n>' or "
                                "'END', got '" +
                                    Line + "'");
      skipToEnd(In, Limits, E);
      return E;
    }
    std::int64_t Count = 0;
    if ((!parsePositiveInt64(Sec[1], Count) && Sec[1] != "0") ||
        Count > Limits.MaxPayloadLines) {
      Frame E = makeError(F.Id, "invalid " + std::string(Sec[0]) +
                                    " line count '" + std::string(Sec[1]) +
                                    "'");
      skipToEnd(In, Limits, E);
      return E;
    }
    std::string *Dest = nullptr;
    if (Sec[0] == "MACHINE") {
      if (!F.Req.MachineText.empty() || !F.Req.BuiltinMachine.empty()) {
        Frame E = makeError(F.Id, !F.Req.MachineText.empty()
                                      ? "duplicate MACHINE section"
                                      : "MACHINE section conflicts with "
                                        "machine=<builtin>");
        skipToEnd(In, Limits, E);
        return E;
      }
      Dest = &F.Req.MachineText;
    } else {
      if (SawDdg) {
        Frame E = makeError(F.Id, "duplicate DDG section");
        skipToEnd(In, Limits, E);
        return E;
      }
      SawDdg = true;
      Dest = &F.Req.DdgText;
    }
    bool Fatal = false;
    if (std::string Err = readPayload(In, Limits, static_cast<int>(Count),
                                      BudgetBytes, *Dest, Fatal);
        !Err.empty()) {
      Frame E = makeError(F.Id, Err, Fatal);
      if (!Fatal)
        skipToEnd(In, Limits, E);
      return E;
    }
  }

  if (!SawDdg)
    return makeError(F.Id, "missing DDG section");
  if (F.Req.MachineText.empty() && F.Req.BuiltinMachine.empty())
    return makeError(F.Id,
                     "missing machine (MACHINE section or machine=<builtin>)");
  return F;
}

std::string modsched::service::errorResponse(const std::string &Id,
                                             const std::string &Message) {
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.key("proto").value(ProtocolVersion);
  if (!Id.empty())
    W.key("id").value(Id);
  W.key("status").value("error");
  W.key("error").value(Message);
  W.endObject();
  return Out;
}

std::string modsched::service::retryAfterResponse(const std::string &Id,
                                                  int RetryAfterMs) {
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.key("proto").value(ProtocolVersion);
  if (!Id.empty())
    W.key("id").value(Id);
  W.key("status").value("retry_after");
  W.key("retry_after_ms").value(RetryAfterMs);
  W.endObject();
  return Out;
}

std::string modsched::service::pingResponse() {
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.key("proto").value(ProtocolVersion);
  W.key("status").value("ok");
  W.key("pong").value(true);
  W.endObject();
  return Out;
}
