#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <vector>

#include "core/error.hpp"

namespace mfc {

/// Extents of a structured block. A dimension is "active" when its extent
/// is greater than one; inactive dimensions carry no ghost layers, which
/// is how 1D and 2D cases reuse the 3D data structures (as in MFC, where
/// n = 0 or p = 0 deactivates a direction).
struct Extents {
    int nx = 1;
    int ny = 1;
    int nz = 1;

    [[nodiscard]] long long cells() const {
        return static_cast<long long>(nx) * ny * nz;
    }
    [[nodiscard]] int dims() const {
        return (nx > 1 ? 1 : 0) + (ny > 1 ? 1 : 0) + (nz > 1 ? 1 : 0);
    }
    [[nodiscard]] bool operator==(const Extents&) const = default;
};

/// Minimal 64-byte-aligned allocator so Field rows can be the direct
/// target of cache-line-granular vector loads (simd::kByteAlign).
template <class T>
struct AlignedAllocator {
    using value_type = T;
    static constexpr std::size_t kAlign = 64;

    AlignedAllocator() = default;
    template <class U>
    AlignedAllocator(const AlignedAllocator<U>&) {}

    [[nodiscard]] T* allocate(std::size_t n) {
        return static_cast<T*>(
            ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
    }
    void deallocate(T* p, std::size_t) {
        ::operator delete(static_cast<void*>(p), std::align_val_t{kAlign});
    }
    template <class U>
    [[nodiscard]] bool operator==(const AlignedAllocator<U>&) const {
        return true;
    }
};

/// A scalar field on a structured block with ghost (halo) layers.
///
/// Interior indices run over [0, nx) x [0, ny) x [0, nz); ghost layers
/// extend each *active* dimension by `ng` cells on both sides, so valid
/// indices along x are [-gx(), nx + gx()). Storage is SoA-contiguous with
/// x fastest; each x-row (ghosts included) is padded to a multiple of 8
/// doubles and the backing buffer is 64-byte-aligned, so every row start
/// (i = -gx) sits on a cache-line boundary and sweep kernels can load
/// pencils straight from the field without a gather. Padding cells are
/// zero-initialized and never addressed by (i, j, k) indexing.
class Field {
public:
    /// Backing storage type: 64-byte-aligned, padding included.
    using Buffer = std::vector<double, AlignedAllocator<double>>;

    Field() = default;

    Field(Extents e, int ng) { resize(e, ng); }

    void resize(Extents e, int ng) {
        MFC_ASSERT(e.nx >= 1 && e.ny >= 1 && e.nz >= 1 && ng >= 0);
        ext_ = e;
        ng_ = ng;
        gx_ = e.nx > 1 ? ng : 0;
        gy_ = e.ny > 1 ? ng : 0;
        gz_ = e.nz > 1 ? ng : 0;
        const int row = e.nx + 2 * gx_;
        ldx_ = (row + 7) / 8 * 8;
        ldy_ = e.ny + 2 * gy_;
        const int ldz = e.nz + 2 * gz_;
        data_.assign(static_cast<std::size_t>(ldx_) * ldy_ * ldz, 0.0);
    }

    [[nodiscard]] const Extents& extents() const { return ext_; }
    [[nodiscard]] int nx() const { return ext_.nx; }
    [[nodiscard]] int ny() const { return ext_.ny; }
    [[nodiscard]] int nz() const { return ext_.nz; }
    [[nodiscard]] int ghosts() const { return ng_; }
    [[nodiscard]] int gx() const { return gx_; }
    [[nodiscard]] int gy() const { return gy_; }
    [[nodiscard]] int gz() const { return gz_; }

    /// Cells per x-row that are addressable, ghosts included.
    [[nodiscard]] int row_length() const { return ext_.nx + 2 * gx_; }
    /// Allocated doubles per x-row, alignment padding included.
    [[nodiscard]] int padded_row_length() const { return ldx_; }

    [[nodiscard]] double& operator()(int i, int j, int k) {
        return data_[index(i, j, k)];
    }
    [[nodiscard]] double operator()(int i, int j, int k) const {
        return data_[index(i, j, k)];
    }

    /// Raw storage including ghosts and row padding (for halo packing and
    /// whole-buffer linear algebra; padding cells hold 0.0 and stay 0.0
    /// under any linear combination of same-shape fields).
    [[nodiscard]] Buffer& raw() { return data_; }
    [[nodiscard]] const Buffer& raw() const { return data_; }

    /// Address of cell (i, j, k); with stride(d), lets pencil kernels
    /// walk a row without per-access index arithmetic.
    [[nodiscard]] double* ptr(int i, int j, int k) {
        return data_.data() + index(i, j, k);
    }
    [[nodiscard]] const double* ptr(int i, int j, int k) const {
        return data_.data() + index(i, j, k);
    }

    /// Element stride between neighboring cells along dimension `d`.
    [[nodiscard]] std::ptrdiff_t stride(int d) const {
        return d == 0 ? 1
               : d == 1
                   ? static_cast<std::ptrdiff_t>(ldx_)
                   : static_cast<std::ptrdiff_t>(ldx_) * ldy_;
    }

    void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

    /// Sum over interior cells only (conservation checks). Walks raw rows
    /// via ptr() so debug builds don't pay a bounds-checked index() per
    /// cell; the i-j-k accumulation order matches the naive triple loop.
    [[nodiscard]] double interior_sum() const {
        double s = 0.0;
        for (int k = 0; k < ext_.nz; ++k) {
            for (int j = 0; j < ext_.ny; ++j) {
                const double* p = ptr(0, j, k);
                for (int i = 0; i < ext_.nx; ++i) s += p[i];
            }
        }
        return s;
    }

private:
    [[nodiscard]] std::size_t index(int i, int j, int k) const {
        MFC_DBG_ASSERT(i >= -gx_ && i < ext_.nx + gx_);
        MFC_DBG_ASSERT(j >= -gy_ && j < ext_.ny + gy_);
        MFC_DBG_ASSERT(k >= -gz_ && k < ext_.nz + gz_);
        return static_cast<std::size_t>(k + gz_) * ldy_ * ldx_ +
               static_cast<std::size_t>(j + gy_) * ldx_ +
               static_cast<std::size_t>(i + gx_);
    }

    Extents ext_{};
    int ng_ = 0;
    int gx_ = 0, gy_ = 0, gz_ = 0;
    int ldx_ = 1, ldy_ = 1;
    Buffer data_;
};

/// A system state: one Field per equation (structure-of-arrays layout).
class StateArray {
public:
    StateArray() = default;
    StateArray(int num_eqns, Extents e, int ng)
        : fields_(static_cast<std::size_t>(num_eqns), Field(e, ng)) {}

    [[nodiscard]] int num_eqns() const { return static_cast<int>(fields_.size()); }
    [[nodiscard]] Field& eq(int q) { return fields_[static_cast<std::size_t>(q)]; }
    [[nodiscard]] const Field& eq(int q) const {
        return fields_[static_cast<std::size_t>(q)];
    }
    [[nodiscard]] Extents extents() const {
        return fields_.empty() ? Extents{} : fields_.front().extents();
    }

private:
    std::vector<Field> fields_;
};

} // namespace mfc
