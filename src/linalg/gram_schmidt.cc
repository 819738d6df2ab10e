#include "linalg/gram_schmidt.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"

namespace roadpart {

namespace {

// Task sizes. Results depend on neither these constants nor the thread
// count.
constexpr int64_t kProjectionWork = int64_t{1} << 15;  // multiply-adds/task
constexpr int64_t kElementGrain = 4096;  // elements per update task

// Basis rows per micro-kernel call: eight rows keep four two-lane
// projection sums in flight, and each element of w is loaded and stored once
// per eight updates.
constexpr int kBlockRows = kGramSchmidtBlockRows;

// Two doubles, one per lane. Lane arithmetic is scalar IEEE double
// arithmetic (no FMA: a product is rounded before it is added), so each lane
// computes exactly what the same chain of scalar operations computes.
typedef double V2 __attribute__((vector_size(16)));

V2 Load(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void Store(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

// h[r] = <v_r, w> for the R rows v_r = v + r * n. Rows 2p and 2p+1 share
// acc[p], one lane each: the products of two adjacent elements of a row are
// formed together, then transposed so each lane adds its own row's products
// in index order, a serial sum starting from 0.0. An odd last row keeps a
// scalar sum.
template <int R>
void ProjectRows(const double* v, int64_t n, const double* w, double* h) {
  constexpr int kPairs = R / 2;
  V2 acc[kPairs > 0 ? kPairs : 1] = {};
  double odd = 0.0;
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const V2 x = Load(w + i);
#pragma GCC unroll 4
    for (int p = 0; p < kPairs; ++p) {
      const V2 a = Load(v + 2 * p * n + i) * x;
      const V2 b = Load(v + (2 * p + 1) * n + i) * x;
      acc[p] += V2{a[0], b[0]};
      acc[p] += V2{a[1], b[1]};
    }
    if constexpr (R % 2 == 1) {
      const V2 c = Load(v + (R - 1) * n + i) * x;
      odd += c[0];
      odd += c[1];
    }
  }
  if (i < n) {
    const double x = w[i];
    for (int p = 0; p < kPairs; ++p) {
      acc[p] += V2{v[2 * p * n + i] * x, v[(2 * p + 1) * n + i] * x};
    }
    if constexpr (R % 2 == 1) odd += v[(R - 1) * n + i] * x;
  }
  for (int p = 0; p < kPairs; ++p) {
    h[2 * p] = acc[p][0];
    h[2 * p + 1] = acc[p][1];
  }
  if constexpr (R % 2 == 1) h[R - 1] = odd;
}

// w[i] -= h[0] v_0[i], then h[1] v_1[i], ... for i in [begin, end). Each lane
// carries one element through the R updates in row order.
template <int R>
void SubtractRows(const double* v, int64_t n, const double* h, double* w,
                  int64_t begin, int64_t end) {
  V2 hv[R];
  for (int r = 0; r < R; ++r) hv[r] = V2{h[r], h[r]};
  int64_t i = begin;
  for (; i + 2 <= end; i += 2) {
    V2 x = Load(w + i);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) x -= hv[r] * Load(v + r * n + i);
    Store(w + i, x);
  }
  if (i < end) {
    double x = w[i];
    for (int r = 0; r < R; ++r) x -= h[r] * v[r * n + i];
    w[i] = x;
  }
}

// The micro-kernels for a block of 1..kBlockRows rows starting at `v`. A
// short block (the last one of a basis whose size is not a multiple of 8)
// runs in pairs and single rows; each sum and each update chain is the same.
void ProjectBlock(const double* v, int rows, int64_t n, const double* w,
                  double* h) {
  if (rows == kBlockRows) return ProjectRows<kBlockRows>(v, n, w, h);
  int r = 0;
  for (; r + 2 <= rows; r += 2) ProjectRows<2>(v + r * n, n, w, h + r);
  if (r < rows) ProjectRows<1>(v + r * n, n, w, h + r);
}

void SubtractBlock(const double* v, int rows, int64_t n, const double* h,
                   double* w, int64_t begin, int64_t end) {
  if (rows == kBlockRows) {
    return SubtractRows<kBlockRows>(v, n, h, w, begin, end);
  }
  for (int r = 0; r < rows; ++r) {
    SubtractRows<1>(v + r * n, n, h + r, w, begin, end);
  }
}

// Rows per projection task: whole blocks, about kProjectionWork
// multiply-adds.
int64_t ProjectionRowsPerTask(int n) {
  return std::max<int64_t>(
      kBlockRows, (kProjectionWork / std::max(n, 1) + kBlockRows - 1) /
                      kBlockRows * kBlockRows);
}

}  // namespace

void GramSchmidtPass(const double* const* chunks, int chunk_rows, int m,
                     int n, double* w, double* h) {
  // Blocks start at multiples of kBlockRows, and so never straddle a chunk.
  RP_DCHECK(chunk_rows > 0 && chunk_rows % kBlockRows == 0);
  auto row = [&](int64_t j) {
    return chunks[j / chunk_rows] + (j % chunk_rows) * n;
  };
  ParallelForBlocked(
      m, ProjectionRowsPerTask(n), [&](int64_t begin, int64_t end) {
        for (int64_t j = begin; j < end; j += kBlockRows) {
          const int rows = static_cast<int>(std::min<int64_t>(kBlockRows,
                                                              end - j));
          ProjectBlock(row(j), rows, n, w, h + j);
        }
      });
  ParallelForBlocked(n, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int j = 0; j < m; j += kBlockRows) {
      const int rows = std::min(kBlockRows, m - j);
      SubtractBlock(row(j), rows, n, h + j, w, begin, end);
    }
  });
}

}  // namespace roadpart
