#include "solver/simulation.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <cmath>

#include "core/timer.hpp"
#include "exec/exec.hpp"
#include "grid/halo.hpp"
#include "numerics/cfl.hpp"
#include "numerics/relaxation.hpp"
#include "telemetry/telemetry.hpp"

namespace {

mfc::telemetry::Counter t_steps("solver.steps");
mfc::telemetry::Counter t_rhs_evals("solver.rhs_evals");

} // namespace

namespace mfc {

std::vector<std::string> output_variable_names(const EquationLayout& lay) {
    std::vector<std::string> names;
    for (int f = 1; f <= lay.num_fluids(); ++f) {
        names.push_back("alpha_rho" + std::to_string(f));
    }
    const char* axes[3] = {"x", "y", "z"};
    for (int d = 0; d < lay.dims(); ++d) {
        names.push_back(std::string("mom_") + axes[d]);
    }
    names.emplace_back("energy");
    for (int f = 1; f <= lay.num_adv(); ++f) {
        names.push_back("alpha" + std::to_string(f));
    }
    if (lay.model() == ModelKind::SixEquation) {
        for (int f = 1; f <= lay.num_fluids(); ++f) {
            names.push_back("internal_energy" + std::to_string(f));
        }
    }
    MFC_ASSERT(static_cast<int>(names.size()) == lay.num_eqns());
    return names;
}

Simulation::Simulation(const CaseConfig& config)
    : cfg_(config), lay_(config.layout()) {
    cfg_.validate();
    block_.cells = cfg_.grid.cells;
    block_.offset = {0, 0, 0};
    rhs_ = std::make_unique<RhsEvaluator>(cfg_, block_);
    const int ng = rhs_->ghost_layers();
    q_ = StateArray(lay_.num_eqns(), block_.cells, ng);
    scratch1_ = StateArray(lay_.num_eqns(), block_.cells, ng);
    scratch2_ = StateArray(lay_.num_eqns(), block_.cells, ng);
    // Serial: every face is physical.
}

Simulation::Simulation(const CaseConfig& config, comm::CartComm& cart)
    : cfg_(config), lay_(config.layout()), cart_(&cart) {
    cfg_.validate();
    block_ = decompose(cfg_.grid.cells, cart.dims(), cart.coords());
    rhs_ = std::make_unique<RhsEvaluator>(cfg_, block_);
    const int ng = rhs_->ghost_layers();
    q_ = StateArray(lay_.num_eqns(), block_.cells, ng);
    scratch1_ = StateArray(lay_.num_eqns(), block_.cells, ng);
    scratch2_ = StateArray(lay_.num_eqns(), block_.cells, ng);
    for (int d = 0; d < 3; ++d) {
        faces_.face[static_cast<std::size_t>(d)][0] =
            cart.neighbor(d, -1) == comm::kProcNull;
        faces_.face[static_cast<std::size_t>(d)][1] =
            cart.neighbor(d, +1) == comm::kProcNull;
    }
    if (cfg_.igr.enabled) {
        // The elliptic solve clamps only at the *global* boundary (the
        // serial stencil, even for periodic cases); decomposition
        // interfaces read exchanged sigma ghosts instead, which is what
        // makes decomposed IGR bitwise-identical to serial.
        const int global_n[3] = {cfg_.grid.cells.nx, cfg_.grid.cells.ny,
                                 cfg_.grid.cells.nz};
        const int local_n[3] = {block_.cells.nx, block_.cells.ny,
                                block_.cells.nz};
        for (int d = 0; d < 3; ++d) {
            const auto s = static_cast<std::size_t>(d);
            sigma_iface_[s][0] = block_.offset[s] > 0;
            sigma_iface_[s][1] =
                block_.offset[s] + local_n[d] < global_n[d];
        }
        rhs_->set_rank_interfaces(
            sigma_iface_, [this](Field& s) { exchange_sigma_halos(s); });
    }
}

void Simulation::initialize() {
    const int nf = cfg_.num_fluids;
    std::vector<double> prim(static_cast<std::size_t>(lay_.num_eqns()));
    std::vector<double> cons(static_cast<std::size_t>(lay_.num_eqns()));

    for (int k = 0; k < block_.cells.nz; ++k) {
        for (int j = 0; j < block_.cells.ny; ++j) {
            for (int i = 0; i < block_.cells.nx; ++i) {
                const std::array<double, 3> x = {
                    cfg_.grid.center(0, block_.global_index(0, i)),
                    cfg_.grid.center(1, block_.global_index(1, j)),
                    cfg_.grid.center(2, block_.global_index(2, k))};
                const Patch* last = nullptr;
                for (const Patch& p : cfg_.patches) {
                    if (p.contains(cfg_.grid, x)) last = &p;
                }
                MFC_REQUIRE(last != nullptr,
                            "initialize: cell not covered by any patch");

                std::fill(prim.begin(), prim.end(), 0.0);
                for (int f = 0; f < nf; ++f) {
                    prim[static_cast<std::size_t>(lay_.cont(f))] =
                        last->alpha_rho[static_cast<std::size_t>(f)];
                }
                for (int d = 0; d < lay_.dims(); ++d) {
                    prim[static_cast<std::size_t>(lay_.mom(d))] =
                        last->velocity[static_cast<std::size_t>(d)];
                }
                prim[static_cast<std::size_t>(lay_.energy())] = last->pressure;
                for (int f = 0; f < lay_.num_adv(); ++f) {
                    prim[static_cast<std::size_t>(lay_.adv(f))] =
                        last->alpha[static_cast<std::size_t>(f)];
                }
                if (lay_.model() == ModelKind::SixEquation) {
                    // Start in pressure equilibrium.
                    for (int f = 0; f < nf; ++f) {
                        prim[static_cast<std::size_t>(lay_.internal_energy(f))] =
                            last->pressure;
                    }
                }

                prim_to_cons(lay_, cfg_.fluids, prim.data(), cons.data());
                for (int q = 0; q < lay_.num_eqns(); ++q) {
                    q_.eq(q)(i, j, k) = cons[static_cast<std::size_t>(q)];
                }
            }
        }
    }
}

void Simulation::fill_ghosts(StateArray& q) {
    // Per-dimension interleaving of halo exchange and physical BC fill:
    // after dimension d, all ghosts of dimensions <= d are valid,
    // including the edge/corner ghosts multi-dimensional stencils
    // (viscous cross-derivatives) read.
    PROF_ZONE("ghosts");
    if (cart_ != nullptr) {
        for (int d = 0; d < 3; ++d) {
            exchange_halos_dim(*cart_, q, d);
            PROF_ZONE("bc");
            apply_boundary_conditions_dim(lay_, cfg_.bc, faces_,
                                          /*serial_periodic=*/false, d, q);
        }
    } else {
        const PhysicalFaces all;
        for (int d = 0; d < 3; ++d) {
            PROF_ZONE("bc");
            apply_boundary_conditions_dim(lay_, cfg_.bc, all,
                                          /*serial_periodic=*/true, d, q);
        }
    }
}

void Simulation::exchange_sigma_halos(Field& s) {
    // One-deep face planes only: the Jacobi stencil and the IGR sweep
    // gather never read sigma's edge or corner ghosts. Tags 910+ keep the
    // planes distinct from the state halo exchange (tags 2d, 2d+1), whose
    // nonblocking requests may be in flight concurrently on the overlap
    // path.
    PROF_ZONE("sigma_halo");
    comm::Communicator& comm = cart_->comm();
    const int n[3] = {block_.cells.nx, block_.cells.ny, block_.cells.nz};
    for (int d = 0; d < 3; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        const bool lo = sigma_iface_[sd][0];
        const bool hi = sigma_iface_[sd][1];
        if (!lo && !hi) continue;
        const int d1 = d == 0 ? 1 : 0; // transverse dims
        const int d2 = d == 2 ? 1 : 2;
        const std::size_t count =
            static_cast<std::size_t>(n[d1]) * static_cast<std::size_t>(n[d2]);
        const auto plane = [&](int c, bool to_buf, double* buf) {
            std::size_t at = 0;
            int idx[3];
            idx[d] = c;
            for (int b = 0; b < n[d2]; ++b) {
                idx[d2] = b;
                for (int a = 0; a < n[d1]; ++a) {
                    idx[d1] = a;
                    double& cell = s(idx[0], idx[1], idx[2]);
                    if (to_buf) {
                        buf[at++] = cell;
                    } else {
                        cell = buf[at++];
                    }
                }
            }
        };
        const int tag_up = 910 + 2 * d;   // data moving toward +d
        const int tag_down = 911 + 2 * d; // data moving toward -d
        std::vector<double> send_lo(lo ? count : 0), send_hi(hi ? count : 0);
        std::vector<double> recv_lo(lo ? count : 0), recv_hi(hi ? count : 0);
        if (hi) {
            plane(n[d] - 1, true, send_hi.data());
            comm.send_doubles(cart_->neighbor(d, +1), tag_up, send_hi.data(),
                              count);
        }
        if (lo) {
            plane(0, true, send_lo.data());
            comm.send_doubles(cart_->neighbor(d, -1), tag_down, send_lo.data(),
                              count);
        }
        if (lo) {
            comm.recv_doubles(cart_->neighbor(d, -1), tag_up, recv_lo.data(),
                              count);
            plane(-1, false, recv_lo.data());
        }
        if (hi) {
            comm.recv_doubles(cart_->neighbor(d, +1), tag_down, recv_hi.data(),
                              count);
            plane(n[d], false, recv_hi.data());
        }
    }
}

double Simulation::stable_dt() {
    // CFL-limited step from the current state (MFC's cfl_adap_dt): the
    // global maximum characteristic speed needs an allreduce in
    // decomposed runs — the per-step collective whose latency the scaling
    // model charges.
    PROF_ZONE("stable_dt");
    const int neq = lay_.num_eqns();
    const int nyl = block_.cells.ny;
    const long long rows = static_cast<long long>(nyl) * block_.cells.nz;
    // Max is an exact (error-free) reduction, so the thread-count- and
    // chunking-independent ordered_reduce tree reproduces the serial
    // result bitwise.
    const double vmax_local = exec::ordered_reduce<double>(
        "stable_dt", 0, rows, 0.0,
        [&](long long lo, long long hi) {
            std::vector<double> cons(static_cast<std::size_t>(neq));
            std::vector<double> prim(cons.size());
            double vmax = 0.0;
            for (long long t = lo; t < hi; ++t) {
                const int j = static_cast<int>(t % nyl);
                const int k = static_cast<int>(t / nyl);
                for (int i = 0; i < block_.cells.nx; ++i) {
                    for (int q = 0; q < neq; ++q) {
                        cons[static_cast<std::size_t>(q)] = q_.eq(q)(i, j, k);
                    }
                    cons_to_prim(lay_, cfg_.fluids, cons.data(), prim.data());
                    const double c =
                        mixture_sound_speed(lay_, cfg_.fluids, prim.data());
                    for (int d = 0; d < lay_.dims(); ++d) {
                        vmax = std::max(
                            vmax,
                            std::abs(prim[static_cast<std::size_t>(
                                lay_.mom(d))]) +
                                c);
                    }
                }
            }
            return vmax;
        },
        [](double a, double b) { return std::max(a, b); });
    double vmax = vmax_local;
    if (cart_ != nullptr) {
        vmax = cart_->comm().allreduce(vmax, comm::Communicator::Op::Max);
    }
    double dx_min = 1e300;
    if (cfg_.grid.cells.nx > 1) dx_min = std::min(dx_min, cfg_.grid.dx(0));
    if (cfg_.grid.cells.ny > 1) dx_min = std::min(dx_min, cfg_.grid.dx(1));
    if (cfg_.grid.cells.nz > 1) dx_min = std::min(dx_min, cfg_.grid.dx(2));
    return cfl_dt(cfg_.cfl, dx_min, vmax);
}

void Simulation::set_overlap(bool enabled) {
    overlap_enabled_ = enabled;
    if (enabled && overlap_ == nullptr) {
        overlap_ = std::make_unique<OverlapRhs>(cfg_, block_, cart_, faces_,
                                                *rhs_);
    }
}

void Simulation::step() {
    PROF_ZONE("step");
    const RhsFn rhs_fn = [this](const StateArray& q, StateArray& dq) {
        // The stepper hands back the state it is about to differentiate;
        // ghosts must be refreshed for every stage. One zone per RK
        // stage: `calls` counts RHS evaluations, the grindtime divisor.
        PROF_ZONE("rk_stage");
        if (overlap_enabled_) {
            // Task-graph path: ghost fill and RHS are one dependency
            // graph with halo/compute overlap (bitwise-identical).
            overlap_->evaluate(const_cast<StateArray&>(q), dq);
        } else {
            fill_ghosts(const_cast<StateArray&>(q));
            rhs_->evaluate(q, dq);
        }
        ++rhs_count_;
        t_rhs_evals.add(1);
    };
    StageFixupFn fixup;
    if (cfg_.model == ModelKind::SixEquation) {
        fixup = [this](StateArray& q) {
            PROF_ZONE("relaxation");
            pressure_relaxation(lay_, cfg_.fluids, q);
        };
    }
    const double dt = cfg_.adaptive_dt ? stable_dt() : cfg_.dt;
    last_dt_ = dt;
    rhs_->set_time(sim_time_); // time-dependent sources (monopoles)
    advance(cfg_.time_stepper, rhs_fn, dt, q_, scratch1_, scratch2_, fixup);
    sim_time_ += dt;
    ++steps_done_;
    t_steps.add(1);
    telemetry::record_event("step", steps_done_, rhs_count_);
    // Counter tracks for the merged Chrome trace, one sample per step
    // (no-op unless armed and tracing).
    telemetry::sample_counters();
}

namespace {

constexpr std::uint64_t kRestartMagic = 0x4d46435265737430ull; // "MFCRest0"

} // namespace

void Simulation::save_restart(const std::string& path) const {
    PROF_ZONE("io_restart");
    std::ofstream out(path, std::ios::binary);
    MFC_REQUIRE(out.good(), "restart: cannot open for write: " + path);
    const auto put = [&](const void* data, std::size_t bytes) {
        out.write(static_cast<const char*>(data),
                  static_cast<std::streamsize>(bytes));
    };
    const std::int32_t shape[4] = {block_.cells.nx, block_.cells.ny,
                                   block_.cells.nz, lay_.num_eqns()};
    put(&kRestartMagic, sizeof kRestartMagic);
    put(shape, sizeof shape);
    put(&sim_time_, sizeof sim_time_);
    const std::int32_t steps = steps_done_;
    put(&steps, sizeof steps);
    std::vector<double> flat;
    for (int q = 0; q < lay_.num_eqns(); ++q) {
        flat.clear();
        for (int k = 0; k < block_.cells.nz; ++k) {
            for (int j = 0; j < block_.cells.ny; ++j) {
                for (int i = 0; i < block_.cells.nx; ++i) {
                    flat.push_back(q_.eq(q)(i, j, k));
                }
            }
        }
        put(flat.data(), flat.size() * sizeof(double));
    }
    MFC_REQUIRE(out.good(), "restart: write failed: " + path);
}

void Simulation::load_restart(const std::string& path) {
    PROF_ZONE("io_restart");
    std::ifstream in(path, std::ios::binary);
    MFC_REQUIRE(in.good(), "restart: cannot open for read: " + path);
    const auto get = [&](void* data, std::size_t bytes) {
        in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
        MFC_REQUIRE(in.good(), "restart: truncated file: " + path);
    };
    std::uint64_t magic = 0;
    get(&magic, sizeof magic);
    MFC_REQUIRE(magic == kRestartMagic, "restart: not a restart file: " + path);
    std::int32_t shape[4];
    get(shape, sizeof shape);
    MFC_REQUIRE(shape[0] == block_.cells.nx && shape[1] == block_.cells.ny &&
                    shape[2] == block_.cells.nz && shape[3] == lay_.num_eqns(),
                "restart: shape mismatch with the configured case");
    get(&sim_time_, sizeof sim_time_);
    std::int32_t steps = 0;
    get(&steps, sizeof steps);
    steps_done_ = steps;
    std::vector<double> flat(
        static_cast<std::size_t>(block_.cells.cells()));
    for (int q = 0; q < lay_.num_eqns(); ++q) {
        get(flat.data(), flat.size() * sizeof(double));
        std::size_t n = 0;
        for (int k = 0; k < block_.cells.nz; ++k) {
            for (int j = 0; j < block_.cells.ny; ++j) {
                for (int i = 0; i < block_.cells.nx; ++i) {
                    q_.eq(q)(i, j, k) = flat[n++];
                }
            }
        }
    }
}

void Simulation::run() {
    const Timer timer;
    for (int s = 0; s < cfg_.t_step_stop; ++s) step();
    wall_ += timer.seconds();
}

double Simulation::grindtime() const {
    return grindtime_ns(wall_, cfg_.grid.total_cells(), lay_.num_eqns(),
                        rhs_count_);
}

std::uint64_t Simulation::state_hash() const {
    // FNV-1a over the interior bytes in (eq, k, j, i) order plus the
    // marching metadata; bitwise-sensitive by construction.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void* data, std::size_t bytes) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t b = 0; b < bytes; ++b) {
            h ^= p[b];
            h *= 0x100000001b3ull;
        }
    };
    for (int q = 0; q < lay_.num_eqns(); ++q) {
        const Field& f = q_.eq(q);
        for (int k = 0; k < block_.cells.nz; ++k) {
            for (int j = 0; j < block_.cells.ny; ++j) {
                for (int i = 0; i < block_.cells.nx; ++i) {
                    const double v = f(i, j, k);
                    mix(&v, sizeof v);
                }
            }
        }
    }
    mix(&sim_time_, sizeof sim_time_);
    const std::int64_t steps = steps_done_;
    mix(&steps, sizeof steps);
    return h;
}

std::uint64_t Simulation::global_state_hash() const {
    if (cart_ == nullptr) return state_hash();
    comm::Communicator& comm = cart_->comm();
    const int neq = lay_.num_eqns();

    // Pack the local interior in (eq, k, j, i) order.
    const std::size_t local_cells =
        static_cast<std::size_t>(block_.cells.cells());
    std::vector<double> local(local_cells * static_cast<std::size_t>(neq));
    std::size_t n = 0;
    for (int q = 0; q < neq; ++q) {
        const Field& f = q_.eq(q);
        for (int k = 0; k < block_.cells.nz; ++k) {
            for (int j = 0; j < block_.cells.ny; ++j) {
                for (int i = 0; i < block_.cells.nx; ++i) {
                    local[n++] = f(i, j, k);
                }
            }
        }
    }

    if (comm.rank() != 0) {
        // Block geometry first, then the payload; same tag (FIFO per
        // source) keeps them paired.
        const std::array<std::int64_t, 6> header = {
            block_.cells.nx,   block_.cells.ny,   block_.cells.nz,
            block_.offset[0],  block_.offset[1],  block_.offset[2]};
        comm.send(0, 905, header.data(), sizeof header);
        comm.send(0, 905, local.data(), local.size() * sizeof(double));
        return 0;
    }

    // Rank 0: assemble the global interior and hash it in global order,
    // so the fingerprint cannot depend on how the domain was split.
    const Extents g = cfg_.grid.cells;
    std::vector<double> global(static_cast<std::size_t>(g.cells()) *
                               static_cast<std::size_t>(neq));
    const auto scatter = [&](const Extents& e, const std::array<int, 3>& off,
                             const double* data) {
        std::size_t m = 0;
        for (int q = 0; q < neq; ++q) {
            for (int k = 0; k < e.nz; ++k) {
                for (int j = 0; j < e.ny; ++j) {
                    for (int i = 0; i < e.nx; ++i) {
                        const std::size_t gi = static_cast<std::size_t>(
                            ((static_cast<long long>(q) * g.nz +
                              (off[2] + k)) *
                                 g.ny +
                             (off[1] + j)) *
                                g.nx +
                            (off[0] + i));
                        global[gi] = data[m++];
                    }
                }
            }
        }
    };
    scatter(block_.cells, block_.offset, local.data());
    for (int r = 1; r < comm.size(); ++r) {
        std::array<std::int64_t, 6> header{};
        comm.recv(r, 905, header.data(), sizeof header);
        const Extents e{static_cast<int>(header[0]),
                        static_cast<int>(header[1]),
                        static_cast<int>(header[2])};
        const std::array<int, 3> off = {static_cast<int>(header[3]),
                                        static_cast<int>(header[4]),
                                        static_cast<int>(header[5])};
        std::vector<double> buf(static_cast<std::size_t>(e.cells()) *
                                static_cast<std::size_t>(neq));
        comm.recv(r, 905, buf.data(), buf.size() * sizeof(double));
        scatter(e, off, buf.data());
    }

    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void* data, std::size_t bytes) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t b = 0; b < bytes; ++b) {
            h ^= p[b];
            h *= 0x100000001b3ull;
        }
    };
    for (const double v : global) mix(&v, sizeof v);
    mix(&sim_time_, sizeof sim_time_);
    const std::int64_t steps = steps_done_;
    mix(&steps, sizeof steps);
    return h;
}

std::vector<double> Simulation::conserved_totals() {
    // Cell volume over active dimensions only (1D/2D cases collapse the
    // inactive directions).
    double vol = 1.0;
    if (cfg_.grid.cells.nx > 1) vol *= cfg_.grid.dx(0);
    if (cfg_.grid.cells.ny > 1) vol *= cfg_.grid.dx(1);
    if (cfg_.grid.cells.nz > 1) vol *= cfg_.grid.dx(2);
    std::vector<double> totals(static_cast<std::size_t>(lay_.num_eqns()));
    for (int q = 0; q < lay_.num_eqns(); ++q) {
        totals[static_cast<std::size_t>(q)] = q_.eq(q).interior_sum() * vol;
    }
    if (cart_ != nullptr) {
        cart_->comm().allreduce(totals, comm::Communicator::Op::Sum);
    }
    return totals;
}

std::pair<double, double> Simulation::minmax(int eq) {
    const Field& f = q_.eq(eq);
    double lo = f(0, 0, 0);
    double hi = lo;
    for (int k = 0; k < block_.cells.nz; ++k) {
        for (int j = 0; j < block_.cells.ny; ++j) {
            for (int i = 0; i < block_.cells.nx; ++i) {
                lo = std::min(lo, f(i, j, k));
                hi = std::max(hi, f(i, j, k));
            }
        }
    }
    if (cart_ != nullptr) {
        lo = cart_->comm().allreduce(lo, comm::Communicator::Op::Min);
        hi = cart_->comm().allreduce(hi, comm::Communicator::Op::Max);
    }
    return {lo, hi};
}

std::vector<std::pair<std::string, std::vector<double>>>
Simulation::flattened_outputs() const {
    MFC_REQUIRE(cart_ == nullptr,
                "flattened_outputs: golden output uses serial runs");
    std::vector<std::pair<std::string, std::vector<double>>> out;
    const std::vector<std::string> names = output_variable_names(lay_);
    for (int q = 0; q < lay_.num_eqns(); ++q) {
        std::vector<double> flat;
        flat.reserve(static_cast<std::size_t>(block_.cells.cells()));
        for (int k = 0; k < block_.cells.nz; ++k) {
            for (int j = 0; j < block_.cells.ny; ++j) {
                for (int i = 0; i < block_.cells.nx; ++i) {
                    flat.push_back(q_.eq(q)(i, j, k));
                }
            }
        }
        out.emplace_back(names[static_cast<std::size_t>(q)], std::move(flat));
    }
    return out;
}

} // namespace mfc
