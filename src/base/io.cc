#include "base/io.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "base/error.hh"
#include "fault/fault.hh"

namespace hawksim::base {

namespace {

namespace fs = std::filesystem;

[[noreturn]] void
throwIo(const std::string &what, const std::string &path, int err)
{
    std::ostringstream os;
    os << what << " '" << path << "': " << std::strerror(err);
    throw RecoverableError(RecoverableError::Kind::kIo, os.str());
}

void
ensureParentDir(const std::string &path)
{
    const fs::path parent = fs::path(path).parent_path();
    if (parent.empty())
        return;
    std::error_code ec;
    fs::create_directories(parent, ec);
    if (ec)
        throw RecoverableError(RecoverableError::Kind::kIo,
                               "cannot create directory '" +
                                   parent.string() + "': " + ec.message());
}

/** write(2) the whole buffer to @p fd, retrying short writes. */
void
writeAll(int fd, const char *data, std::size_t len, const std::string &path)
{
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::write(fd, data + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            throwIo("cannot write", path, err);
        }
        off += static_cast<std::size_t>(n);
    }
}

/** Write @p bytes to @p path via tmp + fsync + rename + dir fsync. */
void
writeAtomicRaw(const std::string &path, std::string_view bytes)
{
    ensureParentDir(path);
    const std::string tmp = path + ".tmp";

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throwIo("cannot open", tmp, errno);
    writeAll(fd, bytes.data(), bytes.size(), tmp);
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        throwIo("cannot fsync", tmp, err);
    }
    if (::close(fd) != 0)
        throwIo("cannot close", tmp, errno);

    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::error_code ec;
        fs::remove(tmp, ec);
        throwIo("cannot rename into place", path, err);
    }

    // Durability of the rename itself: fsync the parent directory.
    const fs::path parent = fs::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd); // best-effort; some filesystems refuse dir fsync
        ::close(dfd);
    }
}

} // namespace

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throwIo("cannot open", path, errno);
    std::ostringstream os;
    os << in.rdbuf();
    if (in.bad())
        throwIo("cannot read", path, errno);
    return std::move(os).str();
}

void
atomicWriteFile(const std::string &path, std::string_view bytes,
                fault::FaultInjector *ioFault)
{
    if (fault::faultAt(ioFault, fault::Site::kSnapShortWrite)) {
        // Torn write: the first half lands at the canonical path and
        // the caller is told it succeeded — exactly what a power cut
        // between write(2) and a completed fsync looks like. The
        // restore ladder is what discovers this.
        writeAtomicRaw(path, bytes.substr(0, bytes.size() / 2));
        ioFault->degradation().tornWrites++;
        return;
    }
    if (fault::faultAt(ioFault, fault::Site::kSnapRename)) {
        // The rename step failed: no file appears at the canonical
        // path (the old content, if any, survives) and the caller
        // gets a hard error it can retry.
        ioFault->degradation().lostWrites++;
        throw RecoverableError(RecoverableError::Kind::kIo,
                               "cannot rename into place '" + path +
                                   "': injected fault (snap-rename)");
    }
    writeAtomicRaw(path, bytes);
}

void
truncateFile(const std::string &path, std::uint64_t length)
{
    ensureParentDir(path);
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd < 0)
        throwIo("cannot open", path, errno);
    if (::ftruncate(fd, static_cast<off_t>(length)) != 0) {
        const int err = errno;
        ::close(fd);
        throwIo("cannot truncate", path, err);
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        throwIo("cannot fsync", path, err);
    }
    if (::close(fd) != 0)
        throwIo("cannot close", path, errno);
}

void
appendFileDurable(const std::string &path, std::string_view bytes)
{
    ensureParentDir(path);
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        throwIo("cannot open", path, errno);
    writeAll(fd, bytes.data(), bytes.size(), path);
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        throwIo("cannot fsync", path, err);
    }
    if (::close(fd) != 0)
        throwIo("cannot close", path, errno);
}

} // namespace hawksim::base
