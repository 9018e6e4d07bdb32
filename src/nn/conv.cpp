#include "nn/conv.h"

#include <cmath>

#include "common/check.h"
#include "common/simd.h"

namespace nvm::nn {

Conv2d::Conv2d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, Rng& rng)
    : in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor::normal(
          {out_c, in_c * kernel * kernel}, 0.0f,
          std::sqrt(2.0f / static_cast<float>(in_c * kernel * kernel)), rng)),
      engine_(ideal_engine()) {
  NVM_CHECK(in_c > 0 && out_c > 0 && kernel > 0 && stride > 0 && pad >= 0);
}

void Conv2d::set_engine(std::shared_ptr<MvmEngine> engine) {
  NVM_CHECK(engine != nullptr);
  engine_ = std::move(engine);
}

Tensor Conv2d::forward(const Tensor& x, Mode mode) {
  NVM_CHECK_EQ(x.rank(), 3u);
  NVM_CHECK_EQ(x.dim(0), in_c_);
  geom_ = ConvGeom{x.dim(0), x.dim(1), x.dim(2), out_c_, kernel_, stride_, pad_};
  cached_cols_ = im2col(x, geom_);
  last_mode_ = mode;
  Tensor y = engine_->matmul(weight_.value, cached_cols_);
  y.reshape({out_c_, geom_.out_h(), geom_.out_w()});
  return apply_eval_hook(std::move(y), mode);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  NVM_CHECK(cached_cols_.numel() > 0, "backward before forward");
  Tensor g = grad_out.reshaped({out_c_, geom_.out_h() * geom_.out_w()});
  // dW = g * cols^T  (ideal arithmetic regardless of forward engine), in
  // Train mode only: after an Eval forward backward is input-only.
  // The transposed-B kernel reads cols row-wise, so no transpose2d copy
  // of the (large) im2col matrix is materialized; same for W^T below.
  if (last_mode_ == Mode::Train)
    simd::gemm_bt_accum(weight_.grad.raw(), g.raw(), cached_cols_.raw(),
                        g.dim(0), cached_cols_.dim(0), g.dim(1), g.dim(1),
                        cached_cols_.dim(1), cached_cols_.dim(0));
  // dX = fold(W^T * g).
  Tensor dcols = matmul_at(weight_.value, g);
  return col2im(dcols, geom_);
}

}  // namespace nvm::nn
