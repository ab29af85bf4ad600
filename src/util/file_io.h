#ifndef BLOSSOMTREE_UTIL_FILE_IO_H_
#define BLOSSOMTREE_UTIL_FILE_IO_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace blossomtree {
namespace util {

/// \brief Replaces the file at `path` with `bytes` atomically: writes a
/// temp file in the same directory, fsyncs it, renames it over `path`, then
/// fsyncs the directory. Readers that still map the old file keep reading
/// the old inode intact (truncating in place would SIGBUS a MAP_SHARED
/// reader past the new end), and a crash leaves either the old or the new
/// file, never a torn one. On failure the temp file is unlinked, `path` is
/// untouched, and the status is kIOError.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace util
}  // namespace blossomtree

#endif  // BLOSSOMTREE_UTIL_FILE_IO_H_
