#include "codec/mb_error.h"

#include "common/check.h"

namespace pbpair::codec {

FrameError luma_mb_errors(const video::YuvFrame& a, const video::YuvFrame& b,
                          int threshold, std::vector<MbError>* per_mb) {
  PB_CHECK(a.same_size(b));
  const kernels::KernelTable& kt = kernels::active();
  const video::Plane& pa = a.y();
  const video::Plane& pb = b.y();
  const int stride = pa.width();
  per_mb->resize(static_cast<std::size_t>(a.mb_count()));
  FrameError total;
  MbError* out = per_mb->data();
  for (int my = 0; my < a.mb_rows(); ++my) {
    const std::uint8_t* ra = pa.row(my * 16);
    const std::uint8_t* rb = pb.row(my * 16);
    for (int mx = 0; mx < a.mb_cols(); ++mx) {
      const MbError e =
          kt.mb_error_16x16(ra + mx * 16, stride, rb + mx * 16, stride,
                            threshold);
      total.sse += e.sse;
      total.bad_pixels += e.bad_pixels;
      *out++ = e;
    }
  }
  return total;
}

}  // namespace pbpair::codec
