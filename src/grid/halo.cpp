#include "grid/halo.hpp"

#include <cstring>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace mfc {

namespace {

/// Iteration box for one face slab of `f` normal to `dim`. The transverse
/// dimensions span the full allocated range (interior plus ghosts) so
/// sequential per-dimension exchanges fill edge and corner ghosts.
struct Box {
    int lo[3];
    int hi[3]; // exclusive
};

int ghosts_along(const Field& f, int dim) {
    return dim == 0 ? f.gx() : dim == 1 ? f.gy() : f.gz();
}

int extent_along(const Field& f, int dim) {
    return dim == 0 ? f.nx() : dim == 1 ? f.ny() : f.nz();
}

Box face_box(const Field& f, int dim, int side, bool interior) {
    Box b;
    b.lo[0] = -f.gx(); b.hi[0] = f.nx() + f.gx();
    b.lo[1] = -f.gy(); b.hi[1] = f.ny() + f.gy();
    b.lo[2] = -f.gz(); b.hi[2] = f.nz() + f.gz();
    const int g = ghosts_along(f, dim);
    const int n = extent_along(f, dim);
    MFC_REQUIRE(g > 0, "halo: no ghost layers along requested dimension");
    if (side < 0) {
        b.lo[dim] = interior ? 0 : -g;
        b.hi[dim] = interior ? g : 0;
    } else {
        b.lo[dim] = interior ? n - g : n;
        b.hi[dim] = interior ? n : n + g;
    }
    return b;
}

std::size_t box_cells(const Box& b) {
    return static_cast<std::size_t>(b.hi[0] - b.lo[0]) *
           static_cast<std::size_t>(b.hi[1] - b.lo[1]) *
           static_cast<std::size_t>(b.hi[2] - b.lo[2]);
}

} // namespace

std::size_t halo_slab_doubles(const StateArray& state, int dim) {
    if (state.num_eqns() == 0) return 0;
    const Box b = face_box(state.eq(0), dim, -1, true);
    return box_cells(b) * static_cast<std::size_t>(state.num_eqns());
}

void pack_face(const Field& f, int dim, int side, bool interior, double* buf) {
    // The box's x-range is a unit-stride run in the field (rows are
    // SoA-contiguous along x), so each (j, k) line is one memcpy; the
    // buffer order matches the former per-cell i-fastest walk exactly.
    const Box b = face_box(f, dim, side, interior);
    const std::size_t run = static_cast<std::size_t>(b.hi[0] - b.lo[0]);
    std::size_t n = 0;
    for (int k = b.lo[2]; k < b.hi[2]; ++k) {
        for (int j = b.lo[1]; j < b.hi[1]; ++j) {
            std::memcpy(buf + n, f.ptr(b.lo[0], j, k), run * sizeof(double));
            n += run;
        }
    }
}

void unpack_face(Field& f, int dim, int side, bool interior, const double* buf) {
    const Box b = face_box(f, dim, side, interior);
    const std::size_t run = static_cast<std::size_t>(b.hi[0] - b.lo[0]);
    std::size_t n = 0;
    for (int k = b.lo[2]; k < b.hi[2]; ++k) {
        for (int j = b.lo[1]; j < b.hi[1]; ++j) {
            std::memcpy(f.ptr(b.lo[0], j, k), buf + n, run * sizeof(double));
            n += run;
        }
    }
}

namespace {

/// Bytes sent per halo direction, identical between the synchronous
/// exchange and the nonblocking channel (both send the same slabs).
telemetry::Counter t_halo_bytes[3]{telemetry::Counter("halo.bytes.x"),
                                   telemetry::Counter("halo.bytes.y"),
                                   telemetry::Counter("halo.bytes.z")};

} // namespace

void exchange_halos_dim(comm::CartComm& cart, StateArray& state, int dim) {
    static constexpr const char* kZone[3] = {"halo_x", "halo_y", "halo_z"};
    if (state.num_eqns() == 0) return;
    const Field& f0 = state.eq(0);
    const int g = ghosts_along(f0, dim);
    if (g == 0) return; // inactive dimension
    telemetry::Zone zone(kZone[dim]);

    const std::size_t count = halo_slab_doubles(state, dim);
    const std::size_t per_eq = count / static_cast<std::size_t>(state.num_eqns());
    std::vector<double> send_lo(count), send_hi(count);
    std::vector<double> recv_lo(count), recv_hi(count);

    {
        PROF_ZONE("halo_pack");
        for (int q = 0; q < state.num_eqns(); ++q) {
            pack_face(state.eq(q), dim, -1, true,
                      send_lo.data() + per_eq * static_cast<std::size_t>(q));
            pack_face(state.eq(q), dim, +1, true,
                      send_hi.data() + per_eq * static_cast<std::size_t>(q));
        }
    }

    const int lo_nbr = cart.neighbor(dim, -1);
    const int hi_nbr = cart.neighbor(dim, +1);
    const int tag_up = 2 * dim;       // data moving toward +dim
    const int tag_down = 2 * dim + 1; // data moving toward -dim

    comm::Communicator& comm = cart.comm();
    const auto slab_bytes = static_cast<std::int64_t>(count * sizeof(double));
    if (hi_nbr != comm::kProcNull) {
        comm.send_doubles(hi_nbr, tag_up, send_hi.data(), count);
        t_halo_bytes[dim].add(slab_bytes);
    }
    if (lo_nbr != comm::kProcNull) {
        comm.send_doubles(lo_nbr, tag_down, send_lo.data(), count);
        t_halo_bytes[dim].add(slab_bytes);
    }
    if (lo_nbr != comm::kProcNull) {
        comm.recv_doubles(lo_nbr, tag_up, recv_lo.data(), count);
        PROF_ZONE("halo_unpack");
        for (int q = 0; q < state.num_eqns(); ++q) {
            unpack_face(state.eq(q), dim, -1, false,
                        recv_lo.data() + per_eq * static_cast<std::size_t>(q));
        }
    }
    if (hi_nbr != comm::kProcNull) {
        comm.recv_doubles(hi_nbr, tag_down, recv_hi.data(), count);
        PROF_ZONE("halo_unpack");
        for (int q = 0; q < state.num_eqns(); ++q) {
            unpack_face(state.eq(q), dim, +1, false,
                        recv_hi.data() + per_eq * static_cast<std::size_t>(q));
        }
    }
}

void exchange_halos(comm::CartComm& cart, StateArray& state) {
    for (int dim = 0; dim < 3; ++dim) exchange_halos_dim(cart, state, dim);
}

void HaloChannel::post(comm::CartComm& cart, StateArray& state, int dim) {
    MFC_ASSERT(!lo_pending_ && !hi_pending_);
    dim_ = dim;
    bytes_posted_ = 0;
    if (state.num_eqns() == 0) return;
    if (ghosts_along(state.eq(0), dim) == 0) return; // inactive dimension

    const std::size_t count = halo_slab_doubles(state, dim);
    const std::size_t per_eq =
        count / static_cast<std::size_t>(state.num_eqns());
    count_ = count;
    send_lo_.resize(count);
    send_hi_.resize(count);
    recv_lo_.resize(count);
    recv_hi_.resize(count);

    {
        // Both slabs are packed unconditionally, like the synchronous
        // exchange (a physical face's slab is simply never sent).
        PROF_ZONE("halo_pack");
        for (int q = 0; q < state.num_eqns(); ++q) {
            pack_face(state.eq(q), dim, -1, true,
                      send_lo_.data() + per_eq * static_cast<std::size_t>(q));
            pack_face(state.eq(q), dim, +1, true,
                      send_hi_.data() + per_eq * static_cast<std::size_t>(q));
        }
    }

    const int lo_nbr = cart.neighbor(dim, -1);
    const int hi_nbr = cart.neighbor(dim, +1);
    const int tag_up = 2 * dim;       // data moving toward +dim
    const int tag_down = 2 * dim + 1; // data moving toward -dim
    const std::size_t bytes = count * sizeof(double);

    comm::Communicator& comm = cart.comm();
    // Same send order as the synchronous path: FIFO matching then makes
    // tag reuse across Runge-Kutta stages unambiguous.
    if (hi_nbr != comm::kProcNull) {
        (void)comm.isend(hi_nbr, tag_up, send_hi_.data(), bytes);
        bytes_posted_ += bytes;
        t_halo_bytes[dim].add(static_cast<std::int64_t>(bytes));
    }
    if (lo_nbr != comm::kProcNull) {
        (void)comm.isend(lo_nbr, tag_down, send_lo_.data(), bytes);
        bytes_posted_ += bytes;
        t_halo_bytes[dim].add(static_cast<std::int64_t>(bytes));
    }
    if (lo_nbr != comm::kProcNull) {
        lo_req_ = comm.irecv(lo_nbr, tag_up, recv_lo_.data(), bytes);
        lo_pending_ = true;
        bytes_posted_ += bytes;
    }
    if (hi_nbr != comm::kProcNull) {
        hi_req_ = comm.irecv(hi_nbr, tag_down, recv_hi_.data(), bytes);
        hi_pending_ = true;
        bytes_posted_ += bytes;
    }
}

bool HaloChannel::ready(StateArray& state, bool block) {
    const std::size_t per_eq =
        state.num_eqns() > 0
            ? count_ / static_cast<std::size_t>(state.num_eqns())
            : 0;
    const auto unpack = [&](const std::vector<double>& buf, int side) {
        PROF_ZONE("halo_unpack");
        for (int q = 0; q < state.num_eqns(); ++q) {
            unpack_face(state.eq(q), dim_, side, false,
                        buf.data() + per_eq * static_cast<std::size_t>(q));
        }
    };
    if (lo_pending_ && (block || lo_req_.test())) {
        if (block) lo_req_.wait();
        unpack(recv_lo_, -1);
        lo_pending_ = false;
    }
    if (hi_pending_ && (block || hi_req_.test())) {
        if (block) hi_req_.wait();
        unpack(recv_hi_, +1);
        hi_pending_ = false;
    }
    return !lo_pending_ && !hi_pending_;
}

void HaloChannel::cancel() {
    lo_req_.cancel();
    hi_req_.cancel();
    lo_pending_ = false;
    hi_pending_ = false;
}

} // namespace mfc
