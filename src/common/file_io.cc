#include "common/file_io.hh"

#include <cerrno>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace stems {

std::optional<std::vector<std::uint8_t>>
readFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    struct stat st{};
    std::vector<std::uint8_t> bytes;
    if (::fstat(fd, &st) == 0 && st.st_size > 0)
        bytes.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < bytes.size()) {
        const ssize_t n =
            ::read(fd, bytes.data() + got, bytes.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    bytes.resize(got);
    return bytes;
}

} // namespace stems
