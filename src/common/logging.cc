#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace fabric {
namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarning)};

// Serializes log lines: one engine runs all its processes on one host
// thread, but separate engines may run on separate threads.
std::mutex& LogMutex() {
  static std::mutex* mutex = new std::mutex;
  return *mutex;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip directories from __FILE__ for compact lines.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelTag(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  {
    std::lock_guard<std::mutex> lock(LogMutex());
    std::fputs(stream_.str().c_str(), stderr);
    std::fputc('\n', stderr);
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace fabric
