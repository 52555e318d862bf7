//===- textio/OpbFormat.cpp - OPB pseudo-Boolean text I/O -----------------===//

#include "textio/OpbFormat.h"

#include "support/TextScan.h"

#include <algorithm>
#include <climits>
#include <sstream>

using namespace modsched;

namespace {

/// Appends "+c xN" / "-c xN" for one normalized literal term, folding a
/// negated literal into variable form: c * ~x == c - c * x, so the
/// degree drops by c.
void emitTerm(std::ostringstream &Out, pb::Lit L, int64_t Coeff,
              int64_t &Degree) {
  int64_t VarCoeff = Coeff;
  if (L.negated()) {
    VarCoeff = -Coeff;
    Degree -= Coeff;
  }
  Out << (VarCoeff >= 0 ? "+" : "") << VarCoeff << " x" << (L.var() + 1)
      << " ";
}

/// \p Acc += \p V; false (leaving \p Acc unspecified) on int64 overflow.
bool checkedAdd(int64_t &Acc, int64_t V) {
  return !__builtin_add_overflow(Acc, V, &Acc);
}

/// One statement's left-hand side in signed variable form: the sum of
/// Coeff * x terms plus a folded constant (from ~x literals).
struct SignedLhs {
  std::vector<std::pair<pb::Var, int64_t>> Terms;
  int64_t Constant = 0;
};

} // namespace

std::string modsched::writeOpbFormat(const OpbProblem &P) {
  std::ostringstream Out;
  Out << "* #variable= " << P.NumVars << " #constraint= " << P.Rows.size()
      << "\n";
  if (P.HasObjective) {
    if (P.ObjectiveConstant != 0)
      Out << "* objective constant " << P.ObjectiveConstant << "\n";
    Out << "min: ";
    int64_t Ignored = 0;
    for (const std::pair<pb::Lit, int64_t> &T : P.Objective)
      emitTerm(Out, T.first, T.second, Ignored);
    Out << ";\n";
  }
  for (const OpbRow &Row : P.Rows) {
    std::ostringstream Line;
    int64_t Degree = Row.Degree;
    for (const std::pair<pb::Lit, int64_t> &T : Row.Terms)
      emitTerm(Line, T.first, T.second, Degree);
    Out << Line.str() << ">= " << Degree << " ;\n";
  }
  return Out.str();
}

std::string modsched::writeOpbFormat(
    const pb::Solver &S,
    const std::vector<std::pair<pb::Lit, int64_t>> &Objective,
    int64_t ObjectiveConstant) {
  OpbProblem P;
  P.NumVars = S.numVars();
  P.HasObjective = !Objective.empty() || ObjectiveConstant != 0;
  P.Objective = Objective;
  P.ObjectiveConstant = ObjectiveConstant;
  P.Rows.reserve(S.exportRows().size());
  for (const pb::ExportRow &R : S.exportRows())
    P.Rows.push_back({R.Terms, R.Degree});
  return writeOpbFormat(P);
}

std::optional<OpbProblem> modsched::parseOpbFormat(const std::string &Text,
                                                   std::string *Error) {
  auto Fail = [Error](const std::string &Msg) -> std::optional<OpbProblem> {
    if (Error)
      *Error = Msg;
    return std::nullopt;
  };

  OpbProblem P;
  int MaxVar = 0;

  // First pass over lines: recover the writer's objective-constant
  // comment, drop every other comment, and join the remaining text so
  // statements can span lines until their ';'.
  std::string Joined;
  LineReader Lines(Text);
  std::string_view Line;
  while (Lines.next(Line)) {
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string_view::npos)
      continue;
    if (Line[First] == '*') {
      TokenReader Comment(Line.substr(First + 1), Blanks::Whitespace,
                          /*HashComments=*/false);
      std::string_view A, B, CTok;
      int64_t C = 0;
      if (Comment.next(A) && Comment.next(B) && Comment.next(CTok) &&
          A == "objective" && B == "constant" &&
          parseSignedDecimal(CTok, C))
        P.ObjectiveConstant = C;
      continue;
    }
    Joined += Line;
    Joined += '\n';
  }

  // Statement scan: "min:" objective or "<terms> REL <rhs> ;" rows.
  TokenReader In(Joined, Blanks::Whitespace, /*HashComments=*/false);
  std::string_view Tok;
  while (In.next(Tok)) {
    bool IsObjective = Tok == "min:";
    if (IsObjective) {
      if (P.HasObjective)
        return Fail("duplicate objective line");
      P.HasObjective = true;
      if (!In.next(Tok))
        return Fail("unterminated objective");
    }

    // Accumulate the statement's terms in signed variable form (a
    // negated literal c * ~x folds into -c * x plus the constant c).
    SignedLhs Lhs;
    std::string_view Rel;
    for (;;) {
      if (Tok == ";" || Tok == ">=" || Tok == "=" || Tok == "<=") {
        Rel = Tok;
        break;
      }
      int64_t Coeff = 0;
      if (!parseSignedDecimal(Tok, Coeff))
        return Fail("malformed coefficient '" + std::string(Tok) + "'");
      // Normalization negates coefficients; INT64_MIN has no negation.
      if (Coeff == INT64_MIN)
        return Fail("coefficient out of range '" + std::string(Tok) + "'");
      if (!In.next(Tok))
        return Fail("dangling coefficient at end of input");
      bool Negated = !Tok.empty() && Tok[0] == '~';
      std::string_view Name = Negated ? Tok.substr(1) : Tok;
      int64_t VarNum = 0;
      if (Name.size() < 2 || Name[0] != 'x' ||
          !parseSignedDecimal(Name.substr(1), VarNum) || VarNum <= 0)
        return Fail("malformed literal '" + std::string(Tok) + "'");
      if (VarNum > INT_MAX)
        return Fail("variable index out of range '" + std::string(Tok) +
                    "'");
      MaxVar = std::max(MaxVar, int(VarNum));
      if (Negated) {
        Lhs.Terms.push_back({pb::Var(VarNum - 1), -Coeff});
        if (!checkedAdd(Lhs.Constant, Coeff))
          return Fail("constant term overflows int64");
      } else {
        Lhs.Terms.push_back({pb::Var(VarNum - 1), Coeff});
      }
      if (!In.next(Tok))
        return Fail("unterminated statement");
    }

    if (IsObjective) {
      if (Rel != ";")
        return Fail("objective must end with ';'");
      for (const std::pair<pb::Var, int64_t> &T : Lhs.Terms)
        P.Objective.push_back({pb::posLit(T.first), T.second});
      if (!checkedAdd(P.ObjectiveConstant, Lhs.Constant))
        return Fail("constant term overflows int64");
      continue;
    }
    if (Rel == ";")
      return Fail("constraint without relation");

    std::string_view RhsTok;
    int64_t Rhs = 0;
    if (!In.next(RhsTok) || !parseSignedDecimal(RhsTok, Rhs))
      return Fail("malformed right-hand side");
    if (!In.next(RhsTok) || RhsTok != ";")
      return Fail("constraint not terminated by ';'");

    // Normalize into >=-rows over positive-coefficient literals:
    // sum(c * x) >= d with c < 0 becomes |c| * ~x with d raised by |c|.
    // Coefficients exclude INT64_MIN, so only the degree can overflow.
    auto PushGe = [&](int64_t Sign) {
      OpbRow Row;
      if (__builtin_sub_overflow(Rhs, Lhs.Constant, &Row.Degree) ||
          __builtin_mul_overflow(Row.Degree, Sign, &Row.Degree))
        return false;
      for (const std::pair<pb::Var, int64_t> &T : Lhs.Terms) {
        int64_t C = Sign * T.second;
        if (C >= 0) {
          Row.Terms.push_back({pb::posLit(T.first), C});
        } else {
          Row.Terms.push_back({pb::negLit(T.first), -C});
          if (!checkedAdd(Row.Degree, -C))
            return false;
        }
      }
      P.Rows.push_back(std::move(Row));
      return true;
    };
    if ((Rel == ">=" || Rel == "=") && !PushGe(+1))
      return Fail("degree overflows int64");
    if ((Rel == "<=" || Rel == "=") && !PushGe(-1))
      return Fail("degree overflows int64");
  }

  // The writer's constant comment only offsets a "min:" line; without
  // one it has nothing to offset (and writeOpbFormat would drop it).
  if (!P.HasObjective)
    P.ObjectiveConstant = 0;
  P.NumVars = std::max(P.NumVars, MaxVar);
  return P;
}
