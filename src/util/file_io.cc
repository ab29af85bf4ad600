#include "util/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>

namespace blossomtree {
namespace util {

namespace {

Status Fail(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t put = ::write(fd, bytes.data(), bytes.size());
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(put));
  }
  return true;
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  // Unique per process and call, so concurrent writers of one target never
  // share a temp file; the last rename wins whole.
  static std::atomic<uint64_t> counter{0};
  std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(counter.fetch_add(1));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return Fail("cannot create", tmp);
  Status st;
  if (!WriteAll(fd, bytes)) {
    st = Fail("write failed for", tmp);
  } else if (::fsync(fd) != 0) {
    st = Fail("fsync failed for", tmp);
  }
  if (::close(fd) != 0 && st.ok()) st = Fail("close failed for", tmp);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Fail("cannot rename onto", path);
  }
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  // Make the rename itself durable.
  size_t slash = path.rfind('/');
  std::string dir = slash == std::string::npos ? "."
                    : slash == 0               ? "/"
                                               : path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return Fail("cannot open directory", dir);
  int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) return Fail("fsync failed for directory", dir);
  return Status::OK();
}

}  // namespace util
}  // namespace blossomtree
