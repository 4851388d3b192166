#include "tensor/tuning.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "parallel/sync.hpp"
#include "util/check.hpp"

namespace tcb {
namespace {

// --- cache geometry --------------------------------------------------------

/// Parses a sysfs cache size string ("48K", "2048K", "1M", "36608K").
std::size_t parse_cache_size(const std::string& text) {
  if (text.empty()) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return 0;
  std::size_t mult = 1;
  if (end && (*end == 'K' || *end == 'k')) mult = 1024;
  if (end && (*end == 'M' || *end == 'm')) mult = 1024 * 1024;
  return static_cast<std::size_t>(v) * mult;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

CacheGeometry detect_geometry() {
  CacheGeometry g;
  // /sys/devices/system/cpu/cpu0/cache/indexN/{level,type,size}; index order
  // is not guaranteed to match level order, so scan and match.
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string level = read_line(base + "level");
    if (level.empty()) continue;
    const std::string type = read_line(base + "type");
    const std::size_t size = parse_cache_size(read_line(base + "size"));
    if (size == 0) continue;
    if (level == "1" && type == "Data") {
      g.l1d_bytes = size;
      g.detected = true;
    } else if (level == "2" && (type == "Unified" || type == "Data")) {
      g.l2_bytes = size;
      g.detected = true;
    }
  }
  return g;
}

// --- candidate generation --------------------------------------------------

/// kc floor: shallower blocks pack B more often than they save. (The
/// bitwise batching contract no longer depends on it — gemm.cpp continues
/// each element's chain across k-blocks.)
constexpr Index kKcFloor = 256;
constexpr Index kKcCeil = 1024;

std::vector<Index> kc_candidates(const CacheGeometry& g, Index mr, Index nr) {
  std::set<Index> out = {kKcFloor, 512};
  // Depth at which the streaming A panel (mr rows) plus one B panel (nr
  // columns) still fit L1d — past that the microkernel's inner loop starts
  // missing on every B reload.
  const auto per_depth =
      static_cast<std::size_t>(mr + nr) * sizeof(float);
  Index kc_l1 = static_cast<Index>(g.l1d_bytes / per_depth);
  kc_l1 = std::clamp((kc_l1 / 64) * 64, kKcFloor, kKcCeil);
  out.insert(kc_l1);
  // Depth at which a quarter of L2 holds the whole packed B slab of a
  // 512-column product — deeper blocks evict the panels they just packed.
  const auto slab_cols = static_cast<std::size_t>(512) * sizeof(float);
  Index kc_l2 = static_cast<Index>((g.l2_bytes / 4) / slab_cols);
  kc_l2 = std::clamp((kc_l2 / 64) * 64, kKcFloor, kKcCeil);
  out.insert(kc_l2);
  return {out.begin(), out.end()};
}

std::vector<GemmBlocking> build_candidates() {
  const CacheGeometry& g = cache_geometry();
  std::vector<GemmBlocking> cands;
  for (std::size_t ki = 0; ki < gemm_kernel_count(); ++ki) {
    const GemmKernelInfo info = gemm_kernel_info(ki);
    for (const Index kc : kc_candidates(g, info.mr, info.nr)) {
      GemmBlocking b;
      b.kc = kc;
      b.mr = info.mr;
      b.nr = info.nr;
      b.kernel = static_cast<int>(ki);
      b.tag = std::string(info.tag) + "/kc" + std::to_string(kc);
      cands.push_back(std::move(b));
    }
  }
  return cands;
}

const std::vector<GemmBlocking>& candidates() {
  static const std::vector<GemmBlocking> table = build_candidates();
  return table;
}

int default_candidate_index() {
  const GemmBlocking def = gemm_default_blocking();
  const auto& cands = candidates();
  for (std::size_t i = 0; i < cands.size(); ++i)
    if (cands[i].kernel == def.kernel && cands[i].kc == def.kc)
      return static_cast<int>(i);
  return 0;
}

// --- selection state -------------------------------------------------------

/// Published per-class choice: index into candidates(), -1 = not selected
/// yet. Lock-free publish (first CAS wins) instead of a mutex so a slow
/// trial run never blocks a concurrent GEMM — it just tunes redundantly and
/// loses the race.
std::atomic<int> g_choice[kGemmShapeClassCount] TCB_LOCK_FREE = {
    std::atomic<int>(-1), std::atomic<int>(-1), std::atomic<int>(-1)};

bool autotune_enabled() {
  if (const char* e = std::getenv("TCB_GEMM_AUTOTUNE"))
    return e[0] != '0';
#ifdef NDEBUG
  return true;
#else
  // Debug/sanitizer builds: trial timings are meaningless and the extra
  // startup cost lands on every test binary — keep the deterministic
  // ISA-default blocking.
  return false;
#endif
}

// --- trial timing ----------------------------------------------------------

struct TrialShape {
  Index m, n, k;
};

TrialShape trial_shape(GemmShapeClass cls) {
  switch (cls) {
    case GemmShapeClass::kTall:
      return {1024, 128, 384};  // activations into a head-sized projection
    case GemmShapeClass::kWide:
      return {128, 1024, 384};  // short batch into a d_ff expansion
    case GemmShapeClass::kSquare:
    default:
      return {320, 320, 768};
  }
}

double time_candidate(const GemmBlocking& blk, const TrialShape& sh,
                      const std::vector<float>& a, const std::vector<float>& b,
                      std::vector<float>& c) {
  using clock = std::chrono::steady_clock;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = clock::now();
    gemm_blocked_with(a.data(), b.data(), c.data(), sh.m, sh.k, sh.n,
                      /*transposed_b=*/false, blk);
    const auto t1 = clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

int tune_class(GemmShapeClass cls) {
  const TrialShape sh = trial_shape(cls);
  const auto an = static_cast<std::size_t>(sh.m * sh.k);
  const auto bn = static_cast<std::size_t>(sh.k * sh.n);
  std::vector<float> a(an), b(bn);
  std::vector<float> c(static_cast<std::size_t>(sh.m * sh.n));
  // Deterministic non-trivial fill; values only need to keep the FPU out of
  // subnormal stalls.
  for (std::size_t i = 0; i < an; ++i)
    a[i] = 0.25f + 0.001f * static_cast<float>(i % 97);
  for (std::size_t i = 0; i < bn; ++i)
    b[i] = -0.5f + 0.002f * static_cast<float>(i % 89);

  const auto& cands = candidates();
  int best_idx = default_candidate_index();
  double best_time = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const double t = time_candidate(cands[i], sh, a, b, c);
    if (t < best_time) {
      best_time = t;
      best_idx = static_cast<int>(i);
    }
  }
  return best_idx;
}

// --- TCB_TUNE_CACHE persistence -------------------------------------------

/// Minimal key extraction from the flat JSON the cache file holds; returns
/// "" when the key is missing. Good enough for a file we also write.
std::string json_value(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  auto pos = doc.find(needle);
  if (pos == std::string::npos) return "";
  pos = doc.find(':', pos + needle.size());
  if (pos == std::string::npos) return "";
  ++pos;
  while (pos < doc.size() && (doc[pos] == ' ' || doc[pos] == '"')) ++pos;
  auto end = pos;
  while (end < doc.size() && doc[end] != ',' && doc[end] != '"' &&
         doc[end] != '}' && doc[end] != '\n')
    ++end;
  return doc.substr(pos, end - pos);
}

int candidate_index_by_tag(const std::string& tag) {
  const auto& cands = candidates();
  for (std::size_t i = 0; i < cands.size(); ++i)
    if (cands[i].tag == tag) return static_cast<int>(i);
  return -1;
}

/// Loads the per-class selection from TCB_TUNE_CACHE if the file exists and
/// was recorded on matching geometry/ISA. Returns -1 for classes it cannot
/// resolve.
int cached_choice(GemmShapeClass cls) {
  const char* path = std::getenv("TCB_TUNE_CACHE");
  if (!path || !*path) return -1;
  std::ifstream in(path);
  if (!in) return -1;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  const CacheGeometry& g = cache_geometry();
  if (json_value(doc, "l1d_bytes") != std::to_string(g.l1d_bytes) ||
      json_value(doc, "l2_bytes") != std::to_string(g.l2_bytes))
    return -1;
  return candidate_index_by_tag(
      json_value(doc, gemm_shape_class_name(cls)));
}

void write_cache_file() {
  const char* path = std::getenv("TCB_TUNE_CACHE");
  if (!path || !*path) return;
  const CacheGeometry& g = cache_geometry();
  std::ofstream out(path);
  if (!out) return;
  out << "{\n"
      << "  \"l1d_bytes\": " << g.l1d_bytes << ",\n"
      << "  \"l2_bytes\": " << g.l2_bytes << ",\n";
  for (int c = 0; c < kGemmShapeClassCount; ++c) {
    const auto cls = static_cast<GemmShapeClass>(c);
    out << "  \"" << gemm_shape_class_name(cls) << "\": \""
        << select_blocking(cls).tag << "\""
        << (c + 1 < kGemmShapeClassCount ? "," : "") << "\n";
  }
  out << "}\n";
}

}  // namespace

std::string CacheGeometry::to_string() const {
  std::ostringstream os;
  os << "l1d=" << l1d_bytes / 1024 << "KiB l2=" << l2_bytes / 1024 << "KiB"
     << (detected ? "" : " (fallback)");
  return os.str();
}

const CacheGeometry& cache_geometry() {
  static const CacheGeometry g = detect_geometry();
  return g;
}

const char* gemm_shape_class_name(GemmShapeClass cls) noexcept {
  switch (cls) {
    case GemmShapeClass::kTall:
      return "tall";
    case GemmShapeClass::kWide:
      return "wide";
    case GemmShapeClass::kSquare:
    default:
      return "square";
  }
}

GemmShapeClass classify_gemm(Index m, Index n) noexcept {
  if (m >= 4 * n) return GemmShapeClass::kTall;
  if (n >= 4 * m) return GemmShapeClass::kWide;
  return GemmShapeClass::kSquare;
}

const GemmBlocking& select_blocking(GemmShapeClass cls) {
  std::atomic<int>& slot = g_choice[static_cast<int>(cls)];
  // The returned reference borrows from this process-lifetime table, never
  // from a temporary — callers may hold it indefinitely.
  static const std::vector<GemmBlocking>& cands = candidates();
  int idx = slot.load(std::memory_order_acquire);
  if (idx < 0) {
    idx = cached_choice(cls);
    if (idx < 0)
      idx = autotune_enabled() ? tune_class(cls) : default_candidate_index();
    int expected = -1;
    slot.compare_exchange_strong(expected, idx, std::memory_order_acq_rel);
    // Racing tuners publish once; everyone proceeds with the winner so the
    // whole process agrees on one blocking per class.
    idx = slot.load(std::memory_order_acquire);
  }
  TCB_DCHECK(idx >= 0 && static_cast<std::size_t>(idx) < cands.size(),
             "gemm blocking selection out of range");
  return cands[static_cast<std::size_t>(idx)];
}

void gemm_autotune_all() {
  for (int c = 0; c < kGemmShapeClassCount; ++c)
    (void)select_blocking(static_cast<GemmShapeClass>(c));
  write_cache_file();
}

void gemm_tuning_reset_for_test() {
  for (auto& slot : g_choice) slot.store(-1, std::memory_order_release);
}

std::string gemm_tuning_summary() {
  std::ostringstream os;
  os << cache_geometry().to_string();
  for (int c = 0; c < kGemmShapeClassCount; ++c) {
    const auto cls = static_cast<GemmShapeClass>(c);
    os << " " << gemm_shape_class_name(cls) << "="
       << select_blocking(cls).tag;
  }
  os << (autotune_enabled() ? " (autotuned)" : " (default)");
  return os.str();
}

}  // namespace tcb
