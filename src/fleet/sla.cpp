#include "fleet/sla.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace nvm::fleet {

namespace {

metrics::Counter& violation_counter() {
  static metrics::Counter& c = metrics::counter("fleet/sla_violations");
  return c;
}

std::string cohort_label(std::int64_t bucket, double width_s) {
  if (width_s <= 0.0) return "fleet";
  std::ostringstream os;
  os << "age[" << static_cast<double>(bucket) * width_s << ","
     << static_cast<double>(bucket + 1) * width_s << "s)";
  return os.str();
}

}  // namespace

SlaMonitor::SlaMonitor(SlaConfig cfg) : cfg_(cfg) {
  NVM_CHECK(cfg_.min_availability >= 0.0 && cfg_.min_availability <= 1.0);
  NVM_CHECK(cfg_.cohort_age_s >= 0.0);
  NVM_CHECK(cfg_.min_cohort_samples >= 1);
}

SlaReport SlaMonitor::observe(const std::vector<ChipEval>& sampled) {
  SlaReport report;

  // Availability comes from the published gauges, not a private channel:
  // the monitor judges the same numbers any metrics scraper sees.
  const double alive = metrics::gauge("fleet/chips_alive").value();
  const double retired = metrics::gauge("fleet/chips_retired").value();
  const double population = alive + retired;
  report.availability = population > 0.0 ? alive / population : 1.0;
  report.availability_ok = report.availability >= cfg_.min_availability;
  if (!report.availability_ok) ++report.violations;

  // Bucket sampled chips by drift age; std::map keeps ascending order.
  std::map<std::int64_t, std::vector<const ChipEval*>> buckets;
  for (const ChipEval& e : sampled) {
    const std::int64_t b =
        cfg_.cohort_age_s > 0.0
            ? static_cast<std::int64_t>(std::floor(e.age_s / cfg_.cohort_age_s))
            : 0;
    buckets[b].push_back(&e);
  }

  for (const auto& [bucket, evals] : buckets) {
    CohortStatus status;
    status.name = cohort_label(bucket, cfg_.cohort_age_s);
    status.samples = static_cast<std::int64_t>(evals.size());
    double clean_sum = 0.0, pgd_sum = 0.0;
    std::int64_t pgd_n = 0;
    for (const ChipEval* e : evals) {
      clean_sum += e->clean;
      if (e->pgd >= 0.0f) {
        pgd_sum += e->pgd;
        ++pgd_n;
      }
    }
    status.clean = static_cast<float>(clean_sum /
                                      static_cast<double>(evals.size()));
    if (pgd_n > 0)
      status.pgd = static_cast<float>(pgd_sum / static_cast<double>(pgd_n));
    status.judged = status.samples >= cfg_.min_cohort_samples;
    if (status.judged) {
      if (status.clean < cfg_.min_clean_acc) status.violated = true;
      if (cfg_.min_adv_acc > 0.0 && status.pgd >= 0.0f &&
          status.pgd < cfg_.min_adv_acc)
        status.violated = true;
    }
    if (status.violated) ++report.violations;
    report.cohorts.push_back(std::move(status));
  }

  if (report.violations > 0) {
    metrics::Counter& violations = violation_counter();
    violations.add(static_cast<std::uint64_t>(report.violations));
    const std::uint64_t total = violations.value();
    if (health_should_log(total))
      NVM_LOG(Warn) << "fleet SLA: " << report.violations
                    << " violation(s) this epoch (availability="
                    << report.availability << ")";
  }
  total_violations_ += report.violations;
  return report;
}

}  // namespace nvm::fleet
