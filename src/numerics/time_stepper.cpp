#include "numerics/time_stepper.hpp"

#include "core/error.hpp"
#include "core/field.hpp"
#include "exec/exec.hpp"
#include "numerics/vec_axpy.hpp"
#include "telemetry/telemetry.hpp"

namespace mfc {

std::string to_string(TimeStepper ts) {
    switch (ts) {
    case TimeStepper::RK1: return "RK1";
    case TimeStepper::RK2: return "RK2";
    case TimeStepper::RK3: return "RK3";
    }
    MFC_ASSERT(false);
}

TimeStepper stepper_from_int(int k) {
    MFC_REQUIRE(k >= 1 && k <= 3, "time_stepper must be 1, 2, or 3");
    return static_cast<TimeStepper>(k);
}

int num_stages(TimeStepper ts) { return static_cast<int>(ts); }

void linear_combine(double a, const StateArray& qa, double b,
                    const StateArray& qb, double c_dt, const StateArray& dq,
                    StateArray& q_out) {
    PROF_ZONE("rk_update");
    MFC_DBG_ASSERT(qa.num_eqns() == q_out.num_eqns());
    // The update runs over each interior (j, k) line's full padded x-row:
    // row starts are 64-byte aligned and row lengths a multiple of 8
    // doubles, so the whole kernel is aligned whole-vector traffic.
    // Transverse (j/k) ghost planes are skipped — every ghost the sweeps
    // read is rebuilt by fill_ghosts before any stencil consumes it — and
    // x-row padding cells stay zero (all three operands are zero there).
    // Element-wise the expression tree matches the scalar loop, so any
    // chunking and any simd width is bitwise identical.
    for (int q = 0; q < q_out.num_eqns(); ++q) {
        const Field& fa = qa.eq(q);
        const Field& fb = qb.eq(q);
        const Field& fd = dq.eq(q);
        Field& fo = q_out.eq(q);
        const int gx = fo.gx();
        const int ny = fo.ny();
        const long long rows =
            static_cast<long long>(ny) * static_cast<long long>(fo.nz());
        const long long len = fo.padded_row_length();
        simd::dispatch([&](auto wc) {
            exec::parallel_for(
                "rk_update", 0, rows, [&](long long row_lo, long long row_hi) {
                    for (long long t = row_lo; t < row_hi; ++t) {
                        const int j = static_cast<int>(t % ny);
                        const int k = static_cast<int>(t / ny);
                        rk_axpy_rows<wc()>(a, fa.ptr(-gx, j, k), b,
                                           fb.ptr(-gx, j, k), c_dt,
                                           fd.ptr(-gx, j, k),
                                           fo.ptr(-gx, j, k), 0, len);
                    }
                });
        });
    }
}

void advance(TimeStepper ts, const RhsFn& rhs, double dt, StateArray& q,
             StateArray& scratch1, StateArray& scratch2,
             const StageFixupFn& fixup) {
    StateArray& q1 = scratch1;
    StateArray& dq = scratch2;

    const auto apply_fixup = [&](StateArray& s) {
        if (fixup) fixup(s);
    };

    switch (ts) {
    case TimeStepper::RK1:
        rhs(q, dq);
        linear_combine(1.0, q, 0.0, q, dt, dq, q);
        apply_fixup(q);
        return;
    case TimeStepper::RK2:
        rhs(q, dq);
        linear_combine(1.0, q, 0.0, q, dt, dq, q1);
        apply_fixup(q1);
        rhs(q1, dq);
        linear_combine(0.5, q, 0.5, q1, 0.5 * dt, dq, q);
        apply_fixup(q);
        return;
    case TimeStepper::RK3:
        // Gottlieb & Shu SSP-RK3.
        rhs(q, dq);
        linear_combine(1.0, q, 0.0, q, dt, dq, q1);
        apply_fixup(q1);
        rhs(q1, dq);
        linear_combine(0.75, q, 0.25, q1, 0.25 * dt, dq, q1);
        apply_fixup(q1);
        rhs(q1, dq);
        linear_combine(1.0 / 3.0, q, 2.0 / 3.0, q1, (2.0 / 3.0) * dt, dq, q);
        apply_fixup(q);
        return;
    }
    MFC_ASSERT(false);
}

} // namespace mfc
