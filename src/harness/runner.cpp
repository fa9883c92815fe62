#include "harness/runner.hpp"

#include <chrono>
#include <memory>

#include "check/probes.hpp"
#include "harness/obs_export.hpp"
#include "obs/options.hpp"
#include "obs/profile.hpp"
#include "obs/series.hpp"

namespace atacsim::harness {

double Outcome::seconds() const {
  return static_cast<double>(run.completion_cycles) * 1e-9;  // 1 GHz
}

double Outcome::offered_load_flits_per_cycle_per_core(int num_cores) const {
  if (run.completion_cycles == 0) return 0;
  return static_cast<double>(run.net.flits_injected) /
         (static_cast<double>(run.completion_cycles) * num_cores);
}

double Outcome::bcast_recv_fraction() const {
  const double b = static_cast<double>(run.net.recv_bcast_flits);
  const double u = static_cast<double>(run.net.recv_unicast_flits);
  return (b + u) > 0 ? b / (b + u) : 0.0;
}

MachineParams atac_plus(PhotonicFlavor f, MachineParams base) {
  base.network = NetworkKind::kAtacPlus;
  base.photonics = f;
  return base;
}

MachineParams emesh_bcast(MachineParams base) {
  base.network = NetworkKind::kEMeshBCast;
  return base;
}

MachineParams emesh_pure(MachineParams base) {
  base.network = NetworkKind::kEMeshPure;
  return base;
}

std::string config_name(const MachineParams& mp) {
  if (mp.network != NetworkKind::kAtacPlus) return to_string(mp.network);
  return to_string(mp.photonics);
}

power::EnergyBreakdown recompute_energy(const Outcome& o,
                                        const MachineParams& mp,
                                        const TechBundle& tb) {
  const power::EnergyModel em(mp, tb);
  return em.compute(o.run.net, o.run.mem, o.run.core,
                    static_cast<double>(o.run.completion_cycles));
}

Outcome run_scenario(const Scenario& s) {
  apps::AppConfig cfg;
  cfg.num_cores = s.mp.num_cores;
  cfg.scale = s.scale;
  cfg.seed = s.seed;
  auto app = apps::make_app(s.app, cfg);

  // Telemetry is armed per process (obs::options); the observer lives for
  // exactly this run and is threaded through Program/Machine as a guarded
  // raw pointer.
  std::unique_ptr<obs::RunObserver> observer;
  if (obs::options().enabled)
    observer = std::make_unique<obs::RunObserver>(obs::options().epoch_cycles);

  core::Program prog(s.mp, observer.get());
  prog.spawn_all(app->body());

  const auto t0 = std::chrono::steady_clock::now();
  Outcome out;
  out.app = s.app;
  out.config = config_name(s.mp);
  {
    obs::PhaseTimer timer("simulate");
    out.run = prog.run(s.max_cycles);
    const EventQueue& q = prog.machine().events();
    timer.set_events(q.dispatched());
    timer.set_queue(q.overflowed(), q.peak_pending());
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.finished = out.run.finished;
  {
    obs::PhaseTimer timer("verify");
    out.verify_msg = out.finished ? app->verify() : "did not complete";
  }

  if (auto* atac = prog.machine().atac()) {
    out.swmr_utilization =
        atac->link_utilization(out.run.completion_cycles);
    out.onet_unicasts = atac->onet_unicast_packets();
    out.onet_bcasts = atac->onet_bcast_packets();
  }

  out.energy = recompute_energy(out, s.mp, TechBundle{});
  if (prog.machine().validation())
    check::check_energy(out.energy, s.app + " on " + out.config);

  if (observer)
    export_run_obs(s, out, *observer, prog.machine().validation());
  return out;
}

}  // namespace atacsim::harness
