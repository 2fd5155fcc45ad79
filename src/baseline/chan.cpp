#include "baseline/chan.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hazard.hpp"
#include "lac/blas.hpp"
#include "lac/qr_rec.hpp"

namespace tbsvd {

bool chan_uses_preqr(int m, int n) {
  return 5LL * m >= 6LL * n;  // m >= 1.2 n, exact in integers
}

template <class T>
MatrixViewT<T> chan_preqr(MatrixViewT<T> s, T* tfac, T* rbuf) {
  const int n = s.n;
  TBSVD_CHECK(s.m >= n && n >= 1, "chan_preqr: need m >= n >= 1");
  TBSVD_CHECK(s.a != nullptr && s.ld >= s.m && tfac != nullptr &&
                  rbuf != nullptr,
              "chan_preqr: invalid view or scratch");
  geqrf_rec<T>(s, MatrixViewT<T>(tfac, n, n, n));
  std::fill(rbuf, rbuf + static_cast<std::size_t>(n) * n, T(0));
  MatrixViewT<T> r(rbuf, n, n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) r(i, j) = s(i, j);
  }
  return r;
}

template <class T>
std::vector<T> chan_stage_values(MatrixViewT<T> s, T* tfac, T* rbuf,
                                 const GebrdOptions& gebrd_opts,
                                 const Bd2valOptions& bd2val_opts,
                                 Bd2valInfo* info) {
  MatrixViewT<T> r = s;
  if (chan_uses_preqr(s.m, s.n)) r = chan_preqr<T>(s, tfac, rbuf);
  std::vector<T> d, e;
  gebrd<T>(r, d, e, gebrd_opts);
  return bd2val<T>(std::move(d), std::move(e), bd2val_opts, info);
}

template <class T>
std::vector<double> chan_singular_values(ConstMatrixViewT<T> A,
                                         const GebrdOptions& opts) {
  TBSVD_CHECK(A.m >= A.n, "chan_singular_values requires m >= n");
  if (A.n == 0) return {};
  const SafeScaling<T> guard(A, "chan_singular_values");
  MatrixT<T> W(A.m, A.n);
  copy<T>(A, W.view());
  guard.scale(W.view());
  const std::size_t nn = chan_uses_preqr(A.m, A.n)
                             ? static_cast<std::size_t>(A.n) * A.n
                             : 0;
  std::vector<T> tfac(nn), rbuf(nn);
  Bd2valInfo bi;
  return guard.finish(chan_stage_values<T>(W.view(), tfac.data(),
                                           rbuf.data(), opts, {}, &bi),
                      bi, nullptr);
}

#define TBSVD_INSTANTIATE_CHAN(T)                                          \
  template MatrixViewT<T> chan_preqr<T>(MatrixViewT<T>, T*, T*);           \
  template std::vector<T> chan_stage_values<T>(                            \
      MatrixViewT<T>, T*, T*, const GebrdOptions&, const Bd2valOptions&,   \
      Bd2valInfo*);                                                        \
  template std::vector<double> chan_singular_values<T>(                    \
      ConstMatrixViewT<T>, const GebrdOptions&);

TBSVD_INSTANTIATE_CHAN(float)
TBSVD_INSTANTIATE_CHAN(double)

#undef TBSVD_INSTANTIATE_CHAN

}  // namespace tbsvd
