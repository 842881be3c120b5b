// AVX-512 kernels (F+BW+DQ+VL). Compiled with -mavx512* when the compiler
// supports it (see src/codec/CMakeLists.txt); the dispatcher only hands
// this table out after a runtime CPUID check for all four extensions.
//
// The 512-bit wins here are the batched-SAD wavefront kernels (four 16-byte
// candidate rows per VPSADBW), quant/dequant (16 int32 lanes per op with
// mask-register sign handling instead of VPSIGND) and the per-MB error
// kernel (four rows per op, bad pixels counted from a compare mask). The
// DCT, half-pel, and single-SAD kernels inherit the AVX2 implementations —
// recorded as such in the per-kernel origin — because 8x8 transforms and
// row-at-a-time cutoff loops don't widen profitably past 256 bits.
#include "codec/kernels/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

// GCC 12's avx512fintrin.h builds _mm512_undefined_epi32() from a
// self-initialised `__m512i __Y = __Y;`, so every intrinsic that passes it
// as the don't-care merge source (_mm512_cvtepi16_epi32, _mm512_abs_epi32,
// ...) warns -W(maybe-)uninitialized once inlined here. The value is never
// read. Silence exactly those two warnings for this header only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif

#include "codec/quant.h"
#include "common/check.h"

namespace pbpair::codec::kernels {

// Defined in kernels_avx2.cpp; the AVX-512 table inherits its kernels.
const KernelTable* avx2_table_or_null();

namespace {

inline __m128i load_row128(const std::uint8_t* base, std::ptrdiff_t off) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + off));
}

// Sums the 8 int64 VPSADBW partials of one zmm into per-candidate SADs:
// lanes (2i, 2i+1) belong to the 16-byte row block of candidate i.
inline void store_sads_x4(__m512i acc, std::int64_t* sads) {
  alignas(64) std::int64_t v[8];
  _mm512_store_si512(reinterpret_cast<__m512i*>(v), acc);
  for (int i = 0; i < 4; ++i) sads[i] = v[2 * i] + v[2 * i + 1];
}

void sad_16x16_x4_avx512(const std::uint8_t* cur, int cur_stride,
                         const std::uint8_t* const refs[4], int ref_stride,
                         std::int64_t sads[4]) {
  __m512i acc = _mm512_setzero_si512();
  for (int y = 0; y < 16; ++y) {
    const std::ptrdiff_t coff = static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::ptrdiff_t roff = static_cast<std::ptrdiff_t>(y) * ref_stride;
    __m512i c = _mm512_broadcast_i32x4(load_row128(cur, coff));
    __m512i r = _mm512_castsi128_si512(load_row128(refs[0], roff));
    r = _mm512_inserti32x4(r, load_row128(refs[1], roff), 1);
    r = _mm512_inserti32x4(r, load_row128(refs[2], roff), 2);
    r = _mm512_inserti32x4(r, load_row128(refs[3], roff), 3);
    acc = _mm512_add_epi64(acc, _mm512_sad_epu8(c, r));
  }
  store_sads_x4(acc, sads);
}

void sad_16x16_x8_avx512(const std::uint8_t* cur, int cur_stride,
                         const std::uint8_t* const refs[8], int ref_stride,
                         std::int64_t sads[8]) {
  __m512i acc_lo = _mm512_setzero_si512();
  __m512i acc_hi = _mm512_setzero_si512();
  for (int y = 0; y < 16; ++y) {
    const std::ptrdiff_t coff = static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::ptrdiff_t roff = static_cast<std::ptrdiff_t>(y) * ref_stride;
    __m512i c = _mm512_broadcast_i32x4(load_row128(cur, coff));
    __m512i r0 = _mm512_castsi128_si512(load_row128(refs[0], roff));
    r0 = _mm512_inserti32x4(r0, load_row128(refs[1], roff), 1);
    r0 = _mm512_inserti32x4(r0, load_row128(refs[2], roff), 2);
    r0 = _mm512_inserti32x4(r0, load_row128(refs[3], roff), 3);
    __m512i r1 = _mm512_castsi128_si512(load_row128(refs[4], roff));
    r1 = _mm512_inserti32x4(r1, load_row128(refs[5], roff), 1);
    r1 = _mm512_inserti32x4(r1, load_row128(refs[6], roff), 2);
    r1 = _mm512_inserti32x4(r1, load_row128(refs[7], roff), 3);
    acc_lo = _mm512_add_epi64(acc_lo, _mm512_sad_epu8(c, r0));
    acc_hi = _mm512_add_epi64(acc_hi, _mm512_sad_epu8(c, r1));
  }
  store_sads_x4(acc_lo, sads);
  store_sads_x4(acc_hi, sads + 4);
}

// ---------------------------------------------------------------------------
// Per-MB error: four rows per zmm; the bad-pixel compare lands in a mask
// register and is counted with POPCNT.
// ---------------------------------------------------------------------------

inline __m512i load_rows4(const std::uint8_t* base, int stride, int y) {
  const std::ptrdiff_t s = stride;
  const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(y) * s;
  __m512i r = _mm512_castsi128_si512(load_row128(base, off));
  r = _mm512_inserti32x4(r, load_row128(base, off + s), 1);
  r = _mm512_inserti32x4(r, load_row128(base, off + 2 * s), 2);
  return _mm512_inserti32x4(r, load_row128(base, off + 3 * s), 3);
}

// Same arithmetic as mb_error_16x16_128 (kernels_x86_128.inl): |d| from
// two saturating subtracts, squares through VPMADDWD into int32 lanes
// that gather at most 16 squares each.
BlockError mb_error_16x16_avx512(const std::uint8_t* a, int a_stride,
                                 const std::uint8_t* b, int b_stride,
                                 int threshold) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i vt = _mm512_set1_epi8(static_cast<char>(
      threshold < 0 ? 0 : (threshold > 255 ? 255 : threshold)));
  __m512i sse = zero;
  std::uint32_t bad = 0;
  for (int y = 0; y < 16; y += 4) {
    const __m512i va = load_rows4(a, a_stride, y);
    const __m512i vb = load_rows4(b, b_stride, y);
    const __m512i d =
        _mm512_or_si512(_mm512_subs_epu8(va, vb), _mm512_subs_epu8(vb, va));
    const __m512i lo = _mm512_unpacklo_epi8(d, zero);
    const __m512i hi = _mm512_unpackhi_epi8(d, zero);
    sse = _mm512_add_epi32(sse, _mm512_add_epi32(_mm512_madd_epi16(lo, lo),
                                                 _mm512_madd_epi16(hi, hi)));
    bad += static_cast<std::uint32_t>(
        __builtin_popcountll(_mm512_cmpgt_epu8_mask(d, vt)));
  }
  BlockError error;
  error.sse = static_cast<std::uint32_t>(_mm512_reduce_add_epi32(sse));
  error.bad_pixels = threshold < 0 ? 256u : bad;
  return error;
}

// ---------------------------------------------------------------------------
// Quantization: one 16-lane int32 vector per 16 coefficients, sign and
// zeroing via mask registers (AVX-512 has no VPSIGND).
// ---------------------------------------------------------------------------

int quantize_ac_avx512(std::int16_t* block, int first, int qp, bool intra) {
  PB_DCHECK(first == 0 || first == 1);
  PB_CHECK(qp >= kMinQp && qp <= kMaxQp);
  const int d = 2 * qp;
  const __m512i vmagic = _mm512_set1_epi32((1 << 18) / d + 1);
  const __m512i vbias = _mm512_set1_epi32(intra ? 0 : qp / 2);
  const __m512i vmax = _mm512_set1_epi32(kMaxLevel);
  const __m512i zero = _mm512_setzero_si512();
  const std::int16_t saved_dc = block[0];

  int nonzero = 0;
  for (int i = 0; i < 64; i += 16) {
    __m512i x = _mm512_cvtepi16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + i)));
    __m512i mag = _mm512_abs_epi32(x);
    __m512i num = _mm512_max_epi32(_mm512_sub_epi32(mag, vbias), zero);
    __m512i lvl = _mm512_srli_epi32(_mm512_mullo_epi32(num, vmagic), 18);
    lvl = _mm512_min_epi32(lvl, vmax);
    const __mmask16 neg = _mm512_cmplt_epi32_mask(x, zero);
    lvl = _mm512_mask_sub_epi32(lvl, neg, zero, lvl);
    __mmask16 nz = _mm512_test_epi32_mask(lvl, lvl);
    if (i == 0 && first == 1) nz &= static_cast<__mmask16>(0xFFFE);
    nonzero += __builtin_popcount(static_cast<unsigned>(nz));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + i),
                        _mm512_cvtepi32_epi16(lvl));
  }
  if (first == 1) block[0] = saved_dc;
  return nonzero;
}

void dequantize_ac_avx512(std::int16_t* block, int first, int qp) {
  PB_DCHECK(first == 0 || first == 1);
  const __m512i vqp = _mm512_set1_epi32(qp);
  const __m512i vone = _mm512_set1_epi32(1);
  const __m512i veven = _mm512_set1_epi32(qp % 2 == 0 ? 1 : 0);
  const __m512i vmax = _mm512_set1_epi32(2047);
  const __m512i zero = _mm512_setzero_si512();
  const std::int16_t saved_dc = block[0];

  for (int i = 0; i < 64; i += 16) {
    __m512i x = _mm512_cvtepi16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + i)));
    __m512i mag = _mm512_abs_epi32(x);
    // |REC| = QP * (2|LEVEL| + 1), minus 1 when QP is even (oddification).
    __m512i rec = _mm512_mullo_epi32(
        vqp, _mm512_add_epi32(_mm512_slli_epi32(mag, 1), vone));
    rec = _mm512_min_epi32(_mm512_sub_epi32(rec, veven), vmax);
    const __mmask16 neg = _mm512_cmplt_epi32_mask(x, zero);
    rec = _mm512_mask_sub_epi32(rec, neg, zero, rec);
    // LEVEL == 0 reconstructs to 0, not to QP - even.
    rec = _mm512_maskz_mov_epi32(_mm512_test_epi32_mask(x, x), rec);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + i),
                        _mm512_cvtepi32_epi16(rec));
  }
  if (first == 1) block[0] = saved_dc;
}

}  // namespace

const KernelTable* avx512_table_or_null() {
  static const KernelTable table = [] {
    // Inherit everything AVX2 provides (origin records carry over), then
    // override the slots where 512-bit lanes genuinely pay off.
    const KernelTable* base = avx2_table_or_null();
    KernelTable t = base != nullptr ? *base : scalar_table();
    t.backend = Backend::kAvx512;
    t.name = "avx512";
    auto adopt = [&t](KernelId id) {
      t.origin[static_cast<int>(id)] = Backend::kAvx512;
    };
    t.sad_16x16_x4 = &sad_16x16_x4_avx512;
    adopt(KernelId::kSad16x16X4);
    t.sad_16x16_x8 = &sad_16x16_x8_avx512;
    adopt(KernelId::kSad16x16X8);
    t.quantize_ac = &quantize_ac_avx512;
    adopt(KernelId::kQuantizeAc);
    t.dequantize_ac = &dequantize_ac_avx512;
    adopt(KernelId::kDequantizeAc);
    t.mb_error_16x16 = &mb_error_16x16_avx512;
    adopt(KernelId::kMbError16x16);
    return t;
  }();
  return &table;
}

}  // namespace pbpair::codec::kernels

#else  // !AVX-512 F+BW+DQ+VL

namespace pbpair::codec::kernels {
const KernelTable* avx512_table_or_null() { return nullptr; }
}  // namespace pbpair::codec::kernels

#endif
