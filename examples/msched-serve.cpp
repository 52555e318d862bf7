//===- examples/msched-serve.cpp - Scheduling service daemon --------------===//
//
// The scheduling-as-a-service daemon (src/service, docs/SERVICE.md):
//
//   msched-serve [--socket=<path>] [--stdio] [--stats-on-exit]
//
// With --socket, binds a Unix-domain socket at <path> and serves
// connections until SIGINT/SIGTERM, then drains gracefully (in-flight
// solves finish and their responses are written before exit). With
// --stdio (the default), serves one batch stream over stdin/stdout and
// exits at EOF/QUIT.
//
// Every server knob comes from the environment (MODSCHED_SERVICE_*,
// see docs/SERVICE.md), the exact backend included
// (MODSCHED_SERVICE_BACKEND=ilp|pb|portfolio, default ilp); the
// process-wide solution cache is ON unless MODSCHED_SERVICE_CACHE=0.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

using namespace modsched;

namespace {

service::Server *GlobalServer = nullptr;

void onSignal(int) {
  if (GlobalServer)
    GlobalServer->requestShutdown();
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath;
  bool Stdio = true;
  bool StatsOnExit = false;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--socket=", 9) == 0) {
      SocketPath = Arg + 9;
      Stdio = false;
    } else if (std::strcmp(Arg, "--stdio") == 0) {
      Stdio = true;
    } else if (std::strcmp(Arg, "--stats-on-exit") == 0) {
      StatsOnExit = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--socket=<path>] [--stdio] "
                   "[--stats-on-exit]\n",
                   Argv[0]);
      return 2;
    }
  }

  service::Server Server(service::ServerOptions::fromEnv());

  if (Stdio) {
    Server.serveStream(std::cin, std::cout, "stdio");
  } else {
    std::string Error;
    if (!Server.listenUnix(SocketPath, &Error)) {
      std::fprintf(stderr, "msched-serve: %s\n", Error.c_str());
      return 1;
    }
    GlobalServer = &Server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::fprintf(stderr, "msched-serve: listening on %s (%d workers)\n",
                 SocketPath.c_str(), Server.options().Workers);
    Server.acceptLoop();
    GlobalServer = nullptr;
  }

  if (StatsOnExit)
    std::fprintf(stderr, "%s\n", Server.statsResponse().c_str());
  return 0;
}
