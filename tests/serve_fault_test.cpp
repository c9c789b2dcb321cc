// Serving-layer fault matrix (label: fault): injected failures at the
// serve seams -- cache insert during a scan, response frame write --
// must surface as request errors or transport failures WITHOUT
// poisoning the cache, wedging a worker, or killing the daemon.  The
// recovery bar is concrete: after the fault clears, the very same
// request must succeed and its bytes must equal a never-faulted run.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/fault.hpp"
#include "io/archive/bbx_writer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace cal {
namespace {

namespace f = core::fault;
namespace fs = std::filesystem;
using serve::QueryClient;
using serve::Request;
using serve::RequestKind;
using serve::Response;
using serve::Status;

Plan fault_plan() {
  return DesignBuilder(41)
      .add(Factor::levels("size", {Value(1024), Value(4096), Value(16384)}))
      .add(Factor::levels("op", {Value("load"), Value("store")}))
      .replications(6)
      .randomize(true)
      .build();
}

MeasureResult fault_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double value =
      run.values[0].as_real() * ctx.rng->lognormal_factor(0.2);
  return MeasureResult{{value}, value * 1e-9};
}

class ServeFault : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!f::compiled_in()) {
      GTEST_SKIP() << "library built without CALIPERS_FAULT_INJECTION";
    }
    f::reset();
    root_ = fs::temp_directory_path() / "calipers_serve_fault_test";
    fs::remove_all(root_);
    fs::create_directories(root_ / "catalog");
    Engine::Options engine_options;
    engine_options.seed = 13;
    const Engine engine({"time_us"}, engine_options);
    io::archive::BbxWriterOptions writer_options;
    writer_options.shards = 2;
    writer_options.block_records = 6;
    io::archive::BbxWriter sink((root_ / "catalog" / "mem").string(),
                                writer_options);
    engine.run(fault_plan(), fault_measure, sink);
    start_server(serve::BlockCache::Options{});
  }

  /// (Re)starts the daemon on the fixture's socket with `cache`.
  void start_server(serve::BlockCache::Options cache) {
    if (server_) server_->stop();
    serve::ServerOptions server_options;
    server_options.socket_path = (root_ / "serve.sock").string();
    server_options.workers = 2;
    server_options.cache = cache;
    server_ = std::make_unique<serve::QueryServer>(
        (root_ / "catalog").string(), server_options);
    server_->start();
  }

  void TearDown() override {
    f::reset();
    if (server_) server_->stop();
    server_.reset();
    fs::remove_all(root_);
  }

  static Request aggregate_request() {
    Request request;
    request.kind = RequestKind::kAggregate;
    request.bundle = "mem";
    request.where = "sequence < 12";
    request.group_by = {"size", "op"};
    request.aggregates = {"count", "mean:time_us"};
    return request;
  }

  QueryClient connect() const {
    return QueryClient::connect_unix((root_ / "serve.sock").string());
  }

  fs::path root_;
  std::unique_ptr<serve::QueryServer> server_;
};

TEST_F(ServeFault, CacheInsertFailureErrorsTheRequestWithoutPoisoning) {
  // First insert of the scan throws: the request must come back as an
  // error, and the columns that never reached the cache must decode
  // again on the retry.
  f::arm_spec("serve.cache_insert=error@1");
  QueryClient client = connect();
  const Response faulted = client.call(aggregate_request());
  EXPECT_EQ(faulted.status, Status::kError);
  EXPECT_NE(faulted.body.find("serve.cache_insert"), std::string::npos);
  EXPECT_GT(f::hits("serve.cache_insert"), 0u);

  // Fault cleared: the same connection, same request, must now succeed
  // and match a never-faulted in-process run byte for byte.
  f::reset();
  const Response recovered = client.call(aggregate_request());
  ASSERT_EQ(recovered.status, Status::kOk);
  const Response reference = server_->execute(aggregate_request());
  ASSERT_EQ(reference.status, Status::kOk);
  EXPECT_EQ(recovered.body, reference.body);
  EXPECT_EQ(server_->cache_stats().hits > 0, true);  // cache warm again
}

TEST_F(ServeFault, EveryCacheInsertFailingStillRecoversAfterReset) {
  // Not just the first insert: every insert of the scan fails.  Nothing
  // reaches the cache, and the workers must stay usable.
  f::arm_spec("serve.cache_insert=error");
  QueryClient client = connect();
  EXPECT_EQ(client.call(aggregate_request()).status, Status::kError);
  EXPECT_EQ(client.call(aggregate_request()).status, Status::kError);
  f::reset();
  const Response recovered = client.call(aggregate_request());
  ASSERT_EQ(recovered.status, Status::kOk);
  const Response reference = server_->execute(aggregate_request());
  EXPECT_EQ(recovered.body, reference.body);
}

TEST_F(ServeFault, WriteFrameFailureDropsTheClientButNotTheServer) {
  // Warm the cache first so the faulted request is otherwise healthy.
  {
    QueryClient client = connect();
    ASSERT_EQ(client.call(aggregate_request()).status, Status::kOk);
  }
  // The server's response write fails: this client's call must fail at
  // the transport level (closed connection, not a protocol response).
  f::arm_spec("serve.write_frame=error@1");
  {
    QueryClient client = connect();
    EXPECT_THROW(client.call(aggregate_request()), std::exception);
  }
  EXPECT_GT(f::hits("serve.write_frame"), 0u);
  f::reset();
  // The daemon survived: a fresh connection gets the exact bytes the
  // in-process path computes.
  QueryClient client = connect();
  const Response after = client.call(aggregate_request());
  ASSERT_EQ(after.status, Status::kOk);
  const Response reference = server_->execute(aggregate_request());
  EXPECT_EQ(after.body, reference.body);
}

TEST_F(ServeFault, DelayedInsertsUnderEvictionKeepConcurrentClientsCorrect) {
  // Distinct requests (so request coalescing never applies) from four
  // concurrent clients, every cache insert slowed and the budget small
  // enough to evict constantly: each response must still equal what a
  // fresh server's in-process path computes without the fault.
  serve::BlockCache::Options cache;
  cache.byte_budget = 512;
  start_server(cache);
  constexpr int kClients = 4;
  constexpr int kRequests = 5;
  const auto request_of = [](int client, int r) {
    Request request = aggregate_request();
    request.where = "sequence < " + std::to_string(4 + client * 8 + r);
    return request;
  };

  f::arm_spec("serve.cache_insert=delay:2");
  std::vector<std::vector<Response>> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client = connect();
      for (int r = 0; r < kRequests; ++r) {
        responses[c].push_back(client.call(request_of(c, r)));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_GT(f::hits("serve.cache_insert"), 0u);
  f::reset();

  EXPECT_GT(server_->cache_stats().evictions, 0u);
  EXPECT_EQ(server_->counters().coalesced, 0u);
  serve::QueryServer fresh((root_ / "catalog").string(), {});
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), static_cast<std::size_t>(kRequests));
    for (int r = 0; r < kRequests; ++r) {
      ASSERT_EQ(responses[c][r].status, Status::kOk);
      const Response reference = fresh.execute(request_of(c, r));
      ASSERT_EQ(reference.status, Status::kOk);
      EXPECT_EQ(responses[c][r].body, reference.body);
    }
  }
}

}  // namespace
}  // namespace cal
