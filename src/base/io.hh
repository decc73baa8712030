/**
 * @file
 * Atomic, durable file I/O.
 *
 * Every artifact the harness persists — checkpoints, reports,
 * traces, inspect dumps, heatmaps, journal records — goes through
 * these helpers so a crash at any instant leaves either the old
 * bytes or the new bytes at the canonical path, never a torn file.
 *
 * The write protocol is the classic same-directory dance:
 *
 *     write(path + ".tmp") → fsync(tmp) → rename(tmp, path)
 *       → fsync(parent dir)
 *
 * Failures throw RecoverableError(kIo) carrying the real cause
 * (including create_directories errors, which the old
 * snap::writeFileOrDie silently swallowed). An optional
 * FaultInjector probes the deterministic I/O chaos sites:
 *
 *  - Site::kSnapShortWrite — silently persist a truncated prefix at
 *    the final path (models a power cut after write(2) but before
 *    fsync reported); the caller sees success, the damage is found
 *    later by the restore ladder.
 *  - Site::kSnapRename — the rename step fails; the temp file is
 *    removed and RecoverableError(kIo) is thrown, so the caller
 *    (supervisor) can retry the grid point.
 */

#ifndef HAWKSIM_BASE_IO_HH
#define HAWKSIM_BASE_IO_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace hawksim::fault {
class FaultInjector;
} // namespace hawksim::fault

namespace hawksim::base {

/** Read a whole file; throws RecoverableError(kIo) with the cause. */
std::string readFile(const std::string &path);

/**
 * Atomically replace @p path with @p bytes (temp + fsync + rename).
 * Creates parent directories. @p ioFault may be null; when set it
 * probes kSnapShortWrite / kSnapRename as documented above.
 */
void atomicWriteFile(const std::string &path, std::string_view bytes,
                     fault::FaultInjector *ioFault = nullptr);

/**
 * Truncate (or create) @p path to exactly @p length bytes and fsync.
 * The journal uses this to cut a torn tail back to the last valid
 * record before resuming appends.
 */
void truncateFile(const std::string &path, std::uint64_t length);

/**
 * Durably append one pre-framed record: a single write(2) at the
 * current end followed by fsync. The caller frames records so a
 * torn tail (crash mid-append) is detectable and discardable.
 */
void appendFileDurable(const std::string &path, std::string_view bytes);

} // namespace hawksim::base

#endif // HAWKSIM_BASE_IO_HH
