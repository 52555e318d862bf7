//===- textio/OpbFormat.h - OPB pseudo-Boolean text I/O ---------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads and writes the OPB text format of the pseudo-Boolean solver
/// competitions, the PB analogue of textio/LpWriter: the scheduling
/// models built by ilpsched/PbFormulation can be handed to an external
/// PB solver (Sat4j, RoundingSat, MiniSat+) for cross-validation.
///
/// Only the linear variable form is emitted — a negated-literal term
/// c * ~x is rewritten as the variable term -c * x with the degree
/// lowered by c, so any OPB consumer parses our output. The parser
/// re-normalizes rows to the "positive coefficients over literals,
/// >= degree" form pb::Solver::exportRows uses, making write -> parse
/// an exact structural round trip.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_TEXTIO_OPBFORMAT_H
#define MODSCHED_TEXTIO_OPBFORMAT_H

#include "pb/PbSolver.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace modsched {

/// One parsed OPB constraint, normalized to sum of positive-coefficient
/// literal terms >= Degree (the form pb::Solver exports).
struct OpbRow {
  std::vector<std::pair<pb::Lit, int64_t>> Terms;
  int64_t Degree = 0;
};

/// A parsed OPB problem.
struct OpbProblem {
  /// Number of variables (from the header comment, or the largest index
  /// seen, whichever is bigger).
  int NumVars = 0;
  /// True when a "min:" objective line is present.
  bool HasObjective = false;
  /// Minimized objective: signed coefficients over positive literals
  /// (OPB objectives carry no constant; see ObjectiveConstant).
  std::vector<std::pair<pb::Lit, int64_t>> Objective;
  /// Constant recovered from the "* objective constant" comment our
  /// writer emits (0 otherwise, and 0 without a "min:" line); model
  /// objective = constant + terms.
  int64_t ObjectiveConstant = 0;
  std::vector<OpbRow> Rows;
};

/// Renders \p P in OPB format ("* #variable= ..." header, optional
/// "min:" line, one ">= d ;" row per constraint).
std::string writeOpbFormat(const OpbProblem &P);

/// Renders the solver's original constraint rows plus the optional
/// objective (e.g. PbFormulation::objectiveTerms) in OPB format.
std::string writeOpbFormat(const pb::Solver &S,
                           const std::vector<std::pair<pb::Lit, int64_t>>
                               &Objective = {},
                           int64_t ObjectiveConstant = 0);

/// Parses OPB text. Accepts ">=" and "=" relations ("=" becomes the two
/// inequalities). Returns nullopt and fills \p Error on malformed input,
/// including variable indices above INT_MAX and coefficients, constants
/// or degrees outside int64 (INT64_MIN coefficients included).
std::optional<OpbProblem> parseOpbFormat(const std::string &Text,
                                         std::string *Error = nullptr);

} // namespace modsched

#endif // MODSCHED_TEXTIO_OPBFORMAT_H
