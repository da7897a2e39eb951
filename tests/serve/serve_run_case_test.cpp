// The run_case request type — one campaign case per request — plus the
// daemon-identity fields: the reply must equal the local
// run_campaign_case result with wall times stripped, run_case must be
// memoized (hence client-retryable), and health/server_stats must
// report worker_id and uptime_seconds.

#include "serve/handlers.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/flat_json.hpp"
#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/campaign_spec.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace chrysalis;

serve::ServerOptions loopback_options(int threads)
{
    serve::ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.threads = threads;
    return options;
}

serve::Client connect_to(const serve::Server& server)
{
    serve::Client client;
    EXPECT_TRUE(client.connect("127.0.0.1", server.port(), 120.0));
    return client;
}

core::CampaignSpec small_spec()
{
    core::CampaignSpec spec;
    spec.cases = 3;
    spec.population = 4;
    spec.generations = 2;
    spec.seed = 5;
    return spec;
}

TEST(ServeRunCase, ReplyMatchesLocalRunCampaignCase)
{
    const core::CampaignSpec spec = small_spec();
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    for (std::size_t index = 0; index < 3; ++index) {
        serve::Response response;
        ASSERT_TRUE(client.call(
            "run_case", core::case_request_fields(spec, index),
            response));
        ASSERT_TRUE(response.ok) << response.raw;
        core::JournalRecord remote;
        ASSERT_TRUE(core::campaign_record_from_fields(response.fields,
                                                      remote))
            << response.raw;

        const dnn::Model model = dnn::make_model(spec.model);
        const core::CampaignCase campaign_case =
            core::build_campaign_case(spec, model, index);
        std::unique_ptr<fault::FaultInjector> faults;
        const search::ExplorerOptions options =
            core::build_explorer_options(spec, faults);
        const core::JournalRecord local = core::deterministic_record(
            core::to_journal_record(
                core::run_campaign_case(campaign_case, options, index,
                                        spec.max_attempts),
                ""));

        // Same serialized record — label, metrics, %.17g doubles, all
        // of it: a case evaluated by a daemon is byte-identical to the
        // same case in a local campaign.
        EXPECT_EQ(core::to_json_line(remote),
                  core::to_json_line(local));
        EXPECT_EQ(remote.label,
                  core::campaign_case_label("kws", index));
    }
    server.stop();
}

TEST(ServeRunCase, IsMemoizedAndRepeatRequestsHitTheCache)
{
    EXPECT_TRUE(serve::response_is_memoized("run_case"));
    EXPECT_FALSE(serve::response_is_memoized("server_stats"));

    const core::CampaignSpec spec = small_spec();
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    serve::Response first;
    ASSERT_TRUE(client.call("run_case",
                            core::case_request_fields(spec, 0), first));
    ASSERT_TRUE(first.ok) << first.raw;
    serve::Response second;
    ASSERT_TRUE(client.call("run_case",
                            core::case_request_fields(spec, 0), second));
    ASSERT_TRUE(second.ok) << second.raw;

    serve::Response stats;
    ASSERT_TRUE(client.call("server_stats", {}, stats));
    std::uint64_t hits = 0;
    std::uint64_t run_case_requests = 0;
    EXPECT_TRUE(json_get_uint64(stats.fields, "cache_hits", hits));
    EXPECT_TRUE(json_get_uint64(stats.fields, "requests_run_case",
                                run_case_requests));
    EXPECT_GE(hits, 1u);
    EXPECT_EQ(run_case_requests, 2u);
    server.stop();
}

TEST(ServeRunCase, BadSpecsAreRefusedNotFatal)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    // Unknown model: the handler's fatal() surfaces as bad_request.
    const core::CampaignSpec spec = small_spec();
    FlatJsonFields fields = core::case_request_fields(spec, 0);
    fields["model"] = "no_such_model";
    serve::Response response;
    ASSERT_TRUE(client.call("run_case", fields, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrBadRequest) << response.raw;

    // Missing case_index.
    ASSERT_TRUE(client.call("run_case", core::to_fields(spec), response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrBadRequest) << response.raw;

    // case_index out of range.
    fields = core::case_request_fields(spec, 0);
    fields["case_index"] = "99";
    ASSERT_TRUE(client.call("run_case", fields, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrBadRequest) << response.raw;

    // The server is still alive and answering.
    ASSERT_TRUE(client.call("health", {}, response));
    EXPECT_TRUE(response.ok);
    server.stop();
}

TEST(ServeRunCase, HealthAndStatsReportWorkerIdentity)
{
    serve::ServerOptions options = loopback_options(1);
    options.worker_id = "test-worker-7";
    serve::Server server(options);
    server.start();
    serve::Client client = connect_to(server);

    serve::Response health;
    ASSERT_TRUE(client.call("health", {}, health));
    ASSERT_TRUE(health.ok) << health.raw;
    std::string worker_id;
    EXPECT_TRUE(json_get_string(health.fields, "worker_id", worker_id));
    EXPECT_EQ(worker_id, "test-worker-7");

    serve::Response stats;
    ASSERT_TRUE(client.call("server_stats", {}, stats));
    ASSERT_TRUE(stats.ok) << stats.raw;
    worker_id.clear();
    EXPECT_TRUE(json_get_string(stats.fields, "worker_id", worker_id));
    EXPECT_EQ(worker_id, "test-worker-7");
    double uptime = -1.0;
    EXPECT_TRUE(json_get_double(stats.fields, "uptime_seconds", uptime));
    EXPECT_GE(uptime, 0.0);
    server.stop();
}

TEST(ServeRunCase, DefaultWorkerIdIsHostnameAndPort)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);
    serve::Response health;
    ASSERT_TRUE(client.call("health", {}, health));
    std::string worker_id;
    ASSERT_TRUE(json_get_string(health.fields, "worker_id", worker_id));
    const std::string port_suffix =
        ":" + std::to_string(server.port());
    ASSERT_GE(worker_id.size(), port_suffix.size());
    EXPECT_EQ(worker_id.substr(worker_id.size() - port_suffix.size()),
              port_suffix);
    server.stop();
}

}  // namespace
