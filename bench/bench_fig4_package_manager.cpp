// E5 — Figure 4 / Sec. III-B: the package manager.
//
//   (a) package comparison across devices — the pCAMP [48] observation the
//       paper leans on: "no framework achieves the best performance in all
//       dimensions".  The full framework has the best kernels, the lite
//       packages win latency/memory on small edges, only training-capable
//       packages can personalize.
//   (b) the real-time ML module: urgent-task tail latency with and without
//       priority preemption under increasing background load.
#include "bench_common.h"

#include "common/rng.h"
#include "hwsim/cost_model.h"
#include "hwsim/device.h"
#include "hwsim/network.h"
#include "hwsim/package.h"
#include "nn/zoo.h"
#include "runtime/migration.h"
#include "runtime/realtime.h"

using namespace openei;

namespace {

void run_fig4() {
  bench::banner("E5 / Fig. 4: package manager");
  common::Rng rng(141);
  nn::zoo::ImageSpec spec;
  nn::Model model = nn::zoo::make_mini_mobilenet(spec, rng);

  bench::section("(a) packages x devices for mini_mobilenet (pCAMP-style)");
  std::printf("%-18s %-26s %12s %12s %12s %9s\n", "device", "package", "latency",
              "memory", "energy", "trains?");
  for (const auto& device :
       {hwsim::raspberry_pi_3(), hwsim::raspberry_pi_4(), hwsim::jetson_tx2()}) {
    for (const auto& package : hwsim::default_packages()) {
      auto cost = hwsim::estimate_inference(model, package, device);
      std::printf("%-18s %-26s %12s %12s %10.2e J %9s\n", device.name.c_str(),
                  package.name.c_str(),
                  bench::format_seconds(cost.latency_s).c_str(),
                  bench::format_bytes(static_cast<double>(cost.memory_bytes))
                      .c_str(),
                  cost.energy_j, package.supports_training ? "yes" : "no");
    }
  }
  std::printf("(full framework: best kernels, fat runtime; openei package: "
              "lean AND trains locally)\n");

  bench::section("(b) real-time ML module: urgent p99 under background load");
  auto pi = hwsim::raspberry_pi_3();
  double frame_latency =
      hwsim::estimate_inference(model, hwsim::openei_package(), pi).latency_s;
  std::printf("%-22s %16s %20s %10s\n", "background tasks", "FIFO p99",
              "real-time module p99", "gain");
  for (int background : {5, 20, 50, 100}) {
    std::vector<runtime::MlTask> tasks;
    for (int i = 0; i < background; ++i) {
      tasks.push_back({"bg" + std::to_string(i), i * frame_latency * 4,
                       frame_latency * 32, runtime::TaskPriority::kBestEffort});
    }
    for (int i = 0; i < 10; ++i) {
      tasks.push_back({"urgent" + std::to_string(i),
                       i * frame_latency * background,
                       frame_latency, runtime::TaskPriority::kUrgent});
    }
    auto fifo =
        runtime::simulate_schedule(tasks, runtime::SchedulingPolicy::kFifo);
    auto preemptive = runtime::simulate_schedule(
        tasks, runtime::SchedulingPolicy::kPriorityPreemptive);
    double fifo_p99 =
        runtime::response_percentile(fifo, 99, runtime::TaskPriority::kUrgent);
    double rt_p99 = runtime::response_percentile(
        preemptive, 99, runtime::TaskPriority::kUrgent);
    std::printf("%-22d %16s %20s %9.0fx\n", background,
                bench::format_seconds(fifo_p99).c_str(),
                bench::format_seconds(rt_p99).c_str(), fifo_p99 / rt_p99);
  }

  bench::section("(c) computation migration (Sec. IV-C): overloaded Pi-3 + "
                 "edge-server helper");
  std::vector<runtime::MigratableTask> queue;
  for (int i = 0; i < 12; ++i) {
    queue.push_back({"frame_batch_" + std::to_string(i), /*flops=*/4e8,
                     /*payload_bytes=*/64'000});
  }
  std::printf("%-14s %10s %14s %14s %9s\n", "link", "migrated", "local only",
              "with helper", "speedup");
  for (const auto& link : hwsim::default_links()) {
    auto plan = runtime::plan_migration(queue, hwsim::raspberry_pi_3(),
                                        hwsim::edge_server(), link);
    std::printf("%-14s %7zu/12 %14s %14s %8.2fx\n", link.name.c_str(),
                plan.migrate.size(),
                bench::format_seconds(plan.local_only_s).c_str(),
                bench::format_seconds(plan.makespan_s).c_str(), plan.speedup());
  }
  std::printf("(the planner refuses to migrate over links that cannot pay for "
              "the payload transfer)\n");
}

void BM_ScheduleFifo(benchmark::State& state) {
  std::vector<runtime::MlTask> tasks;
  for (int i = 0; i < 200; ++i) {
    tasks.push_back({std::string("t").append(std::to_string(i)), i * 0.001, 0.01,
                     i % 10 == 0 ? runtime::TaskPriority::kUrgent
                                 : runtime::TaskPriority::kBestEffort});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runtime::simulate_schedule(tasks, runtime::SchedulingPolicy::kFifo));
  }
}
BENCHMARK(BM_ScheduleFifo);

void BM_SchedulePreemptive(benchmark::State& state) {
  std::vector<runtime::MlTask> tasks;
  for (int i = 0; i < 200; ++i) {
    tasks.push_back({std::string("t").append(std::to_string(i)), i * 0.001, 0.01,
                     i % 10 == 0 ? runtime::TaskPriority::kUrgent
                                 : runtime::TaskPriority::kBestEffort});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::simulate_schedule(
        tasks, runtime::SchedulingPolicy::kPriorityPreemptive));
  }
}
BENCHMARK(BM_SchedulePreemptive);

}  // namespace

OPENEI_BENCH_MAIN(run_fig4)
