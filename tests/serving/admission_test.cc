#include "serving/admission.h"

#include <string>

#include <gtest/gtest.h>

namespace tsad {
namespace {

AdmissionRequest Request(StreamPriority priority, std::size_t depth,
                         std::size_t capacity, std::string_view tenant = "",
                         std::uint64_t in_flight = 0) {
  AdmissionRequest request;
  request.stream_id = "s";
  request.tenant = tenant;
  request.priority = priority;
  request.queue_depth = depth;
  request.queue_capacity = capacity;
  request.tenant_in_flight = in_flight;
  return request;
}

TEST(StreamPriorityTest, NamesRoundTrip) {
  for (int p = 0; p < kNumStreamPriorities; ++p) {
    const auto priority = static_cast<StreamPriority>(p);
    auto parsed = ParseStreamPriority(StreamPriorityName(priority));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, priority);
  }
}

TEST(StreamPriorityTest, ParseRejectsUnknownWithSuggestion) {
  const auto r = ParseStreamPriority("critcal");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("critical"), std::string::npos);
}

TEST(PriorityQuotaPolicyTest, FillCeilingsShedLowPrioritiesFirst) {
  PriorityQuotaPolicy policy;  // ceilings: 1.0 / 0.9 / 0.75 / 0.5
  const std::size_t capacity = 100;

  struct Case {
    StreamPriority priority;
    std::size_t last_admitted_depth;
  };
  for (const Case& c : {Case{StreamPriority::kCritical, 99},
                        Case{StreamPriority::kHigh, 89},
                        Case{StreamPriority::kNormal, 74},
                        Case{StreamPriority::kBatch, 49}}) {
    EXPECT_EQ(policy.Admit(Request(c.priority, c.last_admitted_depth,
                                   capacity)),
              AdmissionDecision::kAdmit)
        << StreamPriorityName(c.priority);
    EXPECT_EQ(policy.Admit(Request(c.priority, c.last_admitted_depth + 1,
                                   capacity)),
              AdmissionDecision::kDeny)
        << StreamPriorityName(c.priority);
  }
}

TEST(PriorityQuotaPolicyTest, ZeroCapacityMeansNoFillCheck) {
  // capacity 0 = the engine did not size the queue; only quotas apply.
  PriorityQuotaPolicy policy;
  EXPECT_EQ(policy.Admit(Request(StreamPriority::kBatch, 1000, 0)),
            AdmissionDecision::kAdmit);
}

TEST(PriorityQuotaPolicyTest, TenantQuotasWithDefaultAndOverride) {
  PriorityQuotaConfig config;
  config.tenant_quota["whale"] = 50;
  config.tenant_quota["capped"] = 1;
  PriorityQuotaPolicy policy(config);

  // Unlisted tenants (and the "" default one) are unlimited.
  EXPECT_EQ(
      policy.Admit(Request(StreamPriority::kNormal, 0, 100, "", 1u << 30)),
      AdmissionDecision::kAdmit);
  EXPECT_EQ(
      policy.Admit(Request(StreamPriority::kNormal, 0, 100, "other", 1u << 30)),
      AdmissionDecision::kAdmit);
  // A listed tenant is denied once its backlog reaches its quota.
  EXPECT_EQ(policy.Admit(Request(StreamPriority::kNormal, 0, 100, "whale", 49)),
            AdmissionDecision::kAdmit);
  EXPECT_EQ(policy.Admit(Request(StreamPriority::kNormal, 0, 100, "whale", 50)),
            AdmissionDecision::kDeny);
  EXPECT_EQ(
      policy.Admit(Request(StreamPriority::kNormal, 0, 100, "capped", 1)),
      AdmissionDecision::kDeny);
  // Quota binds regardless of priority: critical is not exempt.
  EXPECT_EQ(
      policy.Admit(Request(StreamPriority::kCritical, 0, 100, "capped", 1)),
      AdmissionDecision::kDeny);
}

TEST(PriorityQuotaPolicyTest, ZeroQuotaMeansUnlimited) {
  PriorityQuotaConfig config;
  config.tenant_quota["t"] = 0;
  PriorityQuotaPolicy policy(config);
  EXPECT_EQ(
      policy.Admit(Request(StreamPriority::kNormal, 0, 100, "t", 1u << 30)),
      AdmissionDecision::kAdmit);
}

}  // namespace
}  // namespace tsad
