//===- textio/DdgFormat.h - Loop text format --------------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small line-oriented text format for dependence graphs, so loops can
/// be written by hand, dumped, and round-tripped in tests and examples:
///
///   loop <name>
///   op <opname> <class>
///   flow <def> <use> latency=<l> omega=<w>   # register + sched edge
///   edge <src> <dst> latency=<l> omega=<w>   # sched edge only
///   # comments and blank lines are ignored
///
/// Operation classes are resolved against a machine model at parse time.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_TEXTIO_DDGFORMAT_H
#define MODSCHED_TEXTIO_DDGFORMAT_H

#include "graph/DependenceGraph.h"
#include "machine/MachineModel.h"

#include <optional>
#include <string>

namespace modsched {

/// Parses \p Text into a dependence graph against machine \p M. On
/// failure returns nullopt and, when provided, fills \p Error with a
/// line-numbered message. A problem of the whole graph that
/// DependenceGraph::validate finds (a zero-distance dependence cycle)
/// carries the number of the last line.
std::optional<DependenceGraph> parseDdg(const std::string &Text,
                                        const MachineModel &M,
                                        std::string *Error = nullptr);

/// Renders \p G in the .ddg format (round-trips through parseDdg when
/// the machine resolves the same class names).
std::string printDdg(const DependenceGraph &G, const MachineModel &M);

/// Convenience: reads and parses a .ddg file. On failure returns nullopt
/// and fills \p Error (including I/O failures).
std::optional<DependenceGraph> loadDdgFile(const std::string &Path,
                                           const MachineModel &M,
                                           std::string *Error = nullptr);

} // namespace modsched

#endif // MODSCHED_TEXTIO_DDGFORMAT_H
