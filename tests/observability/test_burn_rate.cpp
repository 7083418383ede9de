// Budget burn-rate forecasting (src/core/obs/burn.hpp): sliding-window
// ε-per-second rates, time-to-exhaustion projections, the per-analyst
// budget.burn_rate.<label> / budget.eta_s.<label> gauges fed through
// AuditingBudget, and the journal-witnessed "budget.alert" threshold
// crossing with hysteresis.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/audit.hpp"
#include "core/budget.hpp"
#include "core/metrics.hpp"
#include "core/obs/burn.hpp"
#include "core/obs/journal.hpp"

namespace dpnet::core {
namespace {

TEST(BurnRate, RateIsWindowedEpsPerSecond) {
  obs::BurnTracker tracker;
  tracker.set_window_us(10'000'000);  // 10 s window
  tracker.on_charge("burn.rate", 0.5, 1.5);
  tracker.on_charge("burn.rate", 0.5, 1.0);
  const auto st = tracker.stats("burn.rate");
  // 1.0 eps over a 10 s window = 0.1 eps/s.
  EXPECT_DOUBLE_EQ(st.rate, 0.1);
  ASSERT_TRUE(st.has_eta);
  EXPECT_DOUBLE_EQ(st.eta_s, 10.0);  // 1.0 remaining / 0.1 eps per s
}

TEST(BurnRate, UnknownLabelAndInfiniteRemainingHaveNoForecast) {
  obs::BurnTracker tracker;
  EXPECT_FALSE(tracker.stats("burn.never-seen").has_eta);
  EXPECT_DOUBLE_EQ(tracker.stats("burn.never-seen").rate, 0.0);
  tracker.on_charge("burn.uncapped", 0.25,
                    std::numeric_limits<double>::infinity());
  const auto st = tracker.stats("burn.uncapped");
  EXPECT_GT(st.rate, 0.0);
  EXPECT_FALSE(st.has_eta);  // no cap, no exhaustion forecast
}

// AuditingBudget feeds the global tracker on every labeled charge, and
// the gauges export the forecast.
TEST(BurnRate, AuditedChargesFeedGauges) {
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(2.0));
  const ScopedAuditLabel label(*audit, "burn.gauges");
  audit->charge(0.5);
  const auto st = obs::BurnTracker::global().stats("burn.gauges");
  EXPECT_GT(st.rate, 0.0);
  ASSERT_TRUE(st.has_eta);
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_burn_rate("burn.gauges").value(),
                   st.rate);
  EXPECT_GT(builtin_metrics::budget_eta_s("burn.gauges").value(), 0.0);
  // ETA derives from the post-charge remaining: 1.5 left at 0.5 eps per
  // window-second pace.
  const double expected_eta = 1.5 / st.rate;
  EXPECT_NEAR(builtin_metrics::budget_eta_s("burn.gauges").value(),
              expected_eta, expected_eta * 1e-9);
}

// An armed threshold fires exactly one journal-witnessed budget.alert at
// the first crossing; hovering below the threshold does not re-fire
// (hysteresis re-arms only after the ETA recovers past 2x).
TEST(BurnRate, AlertFiresOnceAndIsJournalWitnessed) {
  obs::BurnTracker tracker;
  tracker.set_alert_eta_s(1e9);  // any finite forecast crosses immediately
  const std::uint64_t before = obs::EventJournal::global().appended();
  tracker.on_charge("burn.alert", 0.5, 0.5);
  EXPECT_EQ(obs::EventJournal::global().appended(), before + 1);
  const auto events = obs::EventJournal::global().events();
  const auto& e = events.back();
  EXPECT_EQ(obs::event_kind_name(e.kind), std::string("budget.alert"));
  EXPECT_EQ(e.label, "burn.alert");
  EXPECT_DOUBLE_EQ(e.eps, 0.5);  // remaining at the crossing
  // Still below threshold: latched, no second alert.
  tracker.on_charge("burn.alert", 0.25, 0.25);
  EXPECT_EQ(obs::EventJournal::global().appended(), before + 1);
}

// The verifier tallies alert events, so a flushed journal carrying
// alerts still round-trips through `dpnet_cli audit verify`.
TEST(BurnRate, VerifierTalliesAlertEvents) {
  obs::EventJournal journal(16);
  journal.append(obs::EventKind::kCharge, "va", 1, 0.5, "laplace");
  journal.append(obs::EventKind::kBudgetAlert, "va", 0, 0.25,
                 "eta below threshold");
  const obs::JournalVerification v =
      obs::verify_journal_text(journal.to_jsonl(/*canonical=*/false));
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, 2u);
  EXPECT_EQ(v.charges, 1u);
  EXPECT_EQ(v.alerts, 1u);
  EXPECT_DOUBLE_EQ(v.charged_eps, 0.5);  // alerts never consume epsilon
}

// A disarmed threshold (the default) never fires, keeping canonical
// journals byte-identical for engine runs outside serve.
TEST(BurnRate, DisarmedThresholdNeverAlerts) {
  obs::BurnTracker tracker;
  const std::uint64_t before = obs::EventJournal::global().appended();
  tracker.on_charge("burn.noalert", 1.0, 0.001);
  EXPECT_EQ(obs::EventJournal::global().appended(), before);
}

}  // namespace
}  // namespace dpnet::core
