#include "tensor/contraction.hpp"

namespace micco {

Tensor contract_meson(const Tensor& a, const Tensor& b) {
  const Shape& sa = a.shape();
  const Shape& sb = b.shape();
  MICCO_EXPECTS(sa.rank() == 2 && sb.rank() == 2);
  MICCO_EXPECTS(sa.batch() == sb.batch());
  MICCO_EXPECTS_MSG(sa.dim(1) == sb.dim(0), "inner extents must agree");

  const std::int64_t batch = sa.batch();
  const std::int64_t m = sa.dim(0);
  const std::int64_t k = sa.dim(1);
  const std::int64_t n = sb.dim(1);

  Tensor c(Shape(batch, {m, n}));
  // i-k-j loop order keeps the B row and C row contiguous in the inner loop.
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const cplx aik = a.at(bi, i, kk);
        for (std::int64_t j = 0; j < n; ++j) {
          c.at(bi, i, j) += aik * b.at(bi, kk, j);
        }
      }
    }
  }
  return c;
}

Tensor contract_baryon(const Tensor& a, const Tensor& b) {
  const Shape& sa = a.shape();
  const Shape& sb = b.shape();
  MICCO_EXPECTS(sa.rank() == 3 && sb.rank() == 3);
  MICCO_EXPECTS(sa.batch() == sb.batch());
  MICCO_EXPECTS(sa.dim(1) == sb.dim(1));  // shared index j
  MICCO_EXPECTS(sa.dim(2) == sb.dim(0));  // shared index k

  const std::int64_t batch = sa.batch();
  const std::int64_t di = sa.dim(0);
  const std::int64_t dj = sa.dim(1);
  const std::int64_t dk = sa.dim(2);
  const std::int64_t dl = sb.dim(2);

  Tensor c(Shape(batch, {di, dl}));
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    for (std::int64_t i = 0; i < di; ++i) {
      for (std::int64_t j = 0; j < dj; ++j) {
        for (std::int64_t k = 0; k < dk; ++k) {
          const cplx aijk = a.at(bi, i, j, k);
          for (std::int64_t l = 0; l < dl; ++l) {
            c.at(bi, i, l) += aijk * b.at(bi, k, j, l);
          }
        }
      }
    }
  }
  return c;
}

Tensor contract_mixed(const Tensor& m, const Tensor& t) {
  const Shape& sm = m.shape();
  const Shape& st = t.shape();
  MICCO_EXPECTS(sm.rank() == 2 && st.rank() == 3);
  MICCO_EXPECTS(sm.batch() == st.batch());
  MICCO_EXPECTS_MSG(sm.dim(1) == st.dim(0), "shared extents must agree");

  const std::int64_t batch = sm.batch();
  const std::int64_t di = sm.dim(0);
  const std::int64_t dj = sm.dim(1);
  const std::int64_t dk = st.dim(1);
  const std::int64_t dl = st.dim(2);

  Tensor c(Shape(batch, {di, dk, dl}));
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    for (std::int64_t i = 0; i < di; ++i) {
      for (std::int64_t j = 0; j < dj; ++j) {
        const cplx mij = m.at(bi, i, j);
        for (std::int64_t k = 0; k < dk; ++k) {
          for (std::int64_t l = 0; l < dl; ++l) {
            c.at(bi, i, k, l) += mij * t.at(bi, j, k, l);
          }
        }
      }
    }
  }
  return c;
}

int contraction_result_rank(int rank_a, int rank_b) {
  MICCO_EXPECTS((rank_a == 2 || rank_a == 3) && (rank_b == 2 || rank_b == 3));
  if (rank_a == 2 && rank_b == 2) return 2;
  if (rank_a == 3 && rank_b == 3) return 2;
  return 3;  // mixed: one baryon line stays open
}

std::uint64_t meson_contraction_flops(std::int64_t batch, std::int64_t m,
                                      std::int64_t k, std::int64_t n) {
  MICCO_EXPECTS(batch >= 1 && m >= 1 && k >= 1 && n >= 1);
  // One complex MAC = 4 real multiplies + 4 real adds = 8 flops.
  return 8ULL * static_cast<std::uint64_t>(batch) *
         static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(k) *
         static_cast<std::uint64_t>(n);
}

std::uint64_t baryon_contraction_flops(std::int64_t batch,
                                       std::int64_t extent) {
  MICCO_EXPECTS(batch >= 1 && extent >= 1);
  // sum over i, j, k, l: extent^4 complex MACs per batch entry.
  const auto e = static_cast<std::uint64_t>(extent);
  return 8ULL * static_cast<std::uint64_t>(batch) * e * e * e * e;
}

std::uint64_t mixed_contraction_flops(std::int64_t batch,
                                      std::int64_t extent) {
  MICCO_EXPECTS(batch >= 1 && extent >= 1);
  // sum over i, j, k, l: extent^4 complex MACs per batch entry.
  const auto e = static_cast<std::uint64_t>(extent);
  return 8ULL * static_cast<std::uint64_t>(batch) * e * e * e * e;
}

std::uint64_t hadron_contraction_flops(int rank_a, int rank_b,
                                       std::int64_t batch,
                                       std::int64_t extent) {
  MICCO_EXPECTS((rank_a == 2 || rank_a == 3) && (rank_b == 2 || rank_b == 3));
  if (rank_a == 2 && rank_b == 2) {
    return meson_contraction_flops(batch, extent, extent, extent);
  }
  if (rank_a == 3 && rank_b == 3) {
    return baryon_contraction_flops(batch, extent);
  }
  return mixed_contraction_flops(batch, extent);
}

std::uint64_t hadron_contraction_flops(int rank, std::int64_t batch,
                                       std::int64_t extent) {
  return hadron_contraction_flops(rank, rank, batch, extent);
}

std::uint64_t hadron_contraction_bytes(int rank_a, int rank_b,
                                       std::int64_t batch,
                                       std::int64_t extent) {
  MICCO_EXPECTS((rank_a == 2 || rank_a == 3) && (rank_b == 2 || rank_b == 3));
  const auto e = static_cast<std::uint64_t>(extent);
  const auto b = static_cast<std::uint64_t>(batch);
  const auto entry = [&](int rank) {
    return rank == 2 ? e * e : e * e * e;
  };
  const std::uint64_t out_entry =
      entry(contraction_result_rank(rank_a, rank_b));
  return (entry(rank_a) + entry(rank_b) + out_entry) * b * sizeof(cplx);
}

std::uint64_t hadron_contraction_bytes(int rank, std::int64_t batch,
                                       std::int64_t extent) {
  return hadron_contraction_bytes(rank, rank, batch, extent);
}

}  // namespace micco
