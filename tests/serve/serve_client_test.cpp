/// \file
/// Client tests against deliberately hostile servers: the whole-frame
/// wall-clock deadline (a trickling server cannot wedge a request),
/// clean errors for replies truncated at every byte offset, reassembly
/// of replies split at every byte offset, and a fast failure on a
/// refused connect.

#include "serve/client.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace chrysalis;

void
brief_pause(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Minimal scripted TCP server: binds an ephemeral loopback port and
/// hands each accepted connection to the behavior callback on a
/// background thread until stopped.
class ScriptedServer
{
  public:
    explicit ScriptedServer(std::function<void(int fd, int index)> behave)
        : behave_(std::move(behave))
    {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(listen_fd_, 0);
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(listen_fd_,
                         reinterpret_cast<const sockaddr*>(&address),
                         sizeof address),
                  0);
        EXPECT_EQ(::listen(listen_fd_, 16), 0);
        socklen_t length = sizeof address;
        EXPECT_EQ(::getsockname(listen_fd_,
                                reinterpret_cast<sockaddr*>(&address),
                                &length),
                  0);
        port_ = static_cast<int>(ntohs(address.sin_port));
        // The thread keeps its own copy of the listener fd: stop()
        // writes listen_fd_ from the main thread, and shutdown() is
        // what actually unblocks accept().
        thread_ = std::thread([this, accept_fd = listen_fd_] {
            int index = 0;
            while (true) {
                const int fd = ::accept(accept_fd, nullptr, nullptr);
                if (fd < 0)
                    return;  // listener closed: shut down
                behave_(fd, index++);
                ::close(fd);
            }
        });
    }

    ~ScriptedServer()
    {
        stop();
    }

    /// Stops accepting; connections to port() are refused afterwards.
    void
    stop()
    {
        if (listen_fd_ >= 0) {
            ::shutdown(listen_fd_, SHUT_RDWR);
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        if (thread_.joinable())
            thread_.join();
    }

    int
    port() const
    {
        return port_;
    }

  private:
    std::function<void(int fd, int index)> behave_;
    int listen_fd_ = -1;
    int port_ = 0;
    std::thread thread_;
};

/// Reads until at least one byte arrived (the request is in flight).
void
swallow_request(int fd)
{
    char buffer[4096];
    (void)!::recv(fd, buffer, sizeof buffer, 0);
}

/// A canned well-formed reply for request id 1.
std::string
canned_reply_frame()
{
    return serve::encode_frame("{\"v\":1,\"id\":1,\"ok\":1}");
}

TEST(ServeClient, TrickleServerCannotOutliveTheFrameDeadline)
{
    // One byte every 30 ms resets a per-recv() timer forever; the
    // whole-frame deadline must cut the request off regardless.
    std::atomic<bool> cancelled{false};
    ScriptedServer server([&](int fd, int) {
        swallow_request(fd);
        const std::string frame = canned_reply_frame();
        for (char byte : frame) {
            if (cancelled.load())
                return;
            if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1)
                return;
            brief_pause(30);
        }
    });

    serve::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), 0.25));
    ASSERT_TRUE(client.send_frame("{\"v\":1,\"id\":1,"
                                  "\"type\":\"server_stats\"}"));
    const double start_s = obs::monotonic_seconds();
    std::string payload;
    EXPECT_FALSE(client.recv_frame(payload));
    const double elapsed_s = obs::monotonic_seconds() - start_s;
    EXPECT_LT(elapsed_s, 2.0);  // deadline, not one-timeout-per-byte
    cancelled.store(true);
    client.close();
}

TEST(ServeClient, ReplyTruncatedAtEveryOffsetFailsCleanly)
{
    // A server killed mid-write can cut the reply at any byte. Every
    // prefix must produce a clean failure — never a hang or a frame
    // assembled from garbage.
    const std::string frame = canned_reply_frame();
    std::atomic<std::size_t> cut{0};
    ScriptedServer server([&](int fd, int) {
        swallow_request(fd);
        const std::size_t n = cut.load();
        if (n > 0)
            (void)!::send(fd, frame.data(), n, MSG_NOSIGNAL);
        // returning closes fd: the client sees EOF after the prefix
    });

    for (std::size_t offset = 0; offset < frame.size(); ++offset) {
        cut.store(offset);
        serve::Client client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(), 5.0))
            << "offset " << offset;
        ASSERT_TRUE(client.send_frame("{\"v\":1,\"id\":1,"
                                      "\"type\":\"server_stats\"}"));
        std::string payload;
        EXPECT_FALSE(client.recv_frame(payload)) << "offset " << offset;
        client.close();
    }
}

TEST(ServeClient, ReplySplitAtEveryOffsetReassembles)
{
    // The same frame delivered in two segments with a pause in between
    // must always reassemble — at every split point, including inside
    // the 4-byte length prefix.
    const std::string frame = canned_reply_frame();
    std::atomic<std::size_t> cut{0};
    ScriptedServer server([&](int fd, int) {
        swallow_request(fd);
        const std::size_t n = cut.load();
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        if (n > 0) {
            ASSERT_EQ(::send(fd, frame.data(), n, MSG_NOSIGNAL),
                      static_cast<ssize_t>(n));
        }
        brief_pause(5);
        ASSERT_EQ(::send(fd, frame.data() + n, frame.size() - n,
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(frame.size() - n));
    });

    for (std::size_t offset = 0; offset < frame.size(); ++offset) {
        cut.store(offset);
        serve::Client client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(), 5.0))
            << "offset " << offset;
        ASSERT_TRUE(client.send_frame("{\"v\":1,\"id\":1,"
                                      "\"type\":\"server_stats\"}"));
        std::string payload;
        ASSERT_TRUE(client.recv_frame(payload)) << "offset " << offset;
        EXPECT_EQ(payload, "{\"v\":1,\"id\":1,\"ok\":1}");
        client.close();
    }
}

TEST(ServeClient, ConnectToRefusedPortFailsFast)
{
    int dead_port = 0;
    {
        ScriptedServer placeholder([](int, int) {});
        dead_port = placeholder.port();
    }
    serve::Client client;
    const double start_s = obs::monotonic_seconds();
    EXPECT_FALSE(client.connect("127.0.0.1", dead_port, 5.0));
    EXPECT_LT(obs::monotonic_seconds() - start_s, 2.0);
}

}  // namespace
