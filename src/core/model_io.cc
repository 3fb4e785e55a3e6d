#include "core/model_io.h"

#include <unistd.h>

#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "serve/plan_model.h"

namespace sel {

namespace {

constexpr int kFormatVersion = 1;

/// %.17g: enough digits for doubles to round-trip exactly, so a loaded
/// model reproduces the saved model's estimates bit for bit.
std::string FormatExact(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

void WriteVector(std::ostream& out, const Point& v) {
  for (double x : v) out << ' ' << FormatExact(x);
}

Status WriteHeader(std::ostream& out, const std::string& kind, int dim,
                   size_t buckets) {
  out << "# sel learned selectivity model\n";
  out << "selmodel " << kFormatVersion << ' ' << kind << ' ' << dim << ' '
      << buckets << "\n";
  return out.good() ? Status::OK() : Status::IOError("write failed");
}

/// The legacy kind tags predate the registry; map them onto the static
/// forms they have always deserialized to.
std::string CanonicalKind(const std::string& kind) {
  if (kind == "histogram") return "static";
  if (kind == "points") return "staticpoints";
  return kind;
}

bool ReadDoubles(std::istringstream& is, int n, Point* out) {
  out->resize(n);
  for (int j = 0; j < n; ++j) {
    if (!(is >> (*out)[j]) || !std::isfinite((*out)[j])) return false;
  }
  return true;
}

/// Reads the trailing weight of a record; NaN/inf weights are corrupt.
bool ReadWeight(std::istringstream& is, double* w) {
  return static_cast<bool>(is >> *w) && std::isfinite(*w);
}

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over the payload bytes.
uint32_t Crc32(const std::string& data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Crash-safe publication of a rendered model file: the payload plus its
/// CRC trailer land in a same-directory temp file, are fsynced, and only
/// then renamed over `path`. A crash at any point leaves either the old
/// complete file or the new complete file on disk, never a torn mix —
/// rename(2) within one directory is atomic on POSIX filesystems.
Status CommitModelFile(const std::string& path, const std::string& payload) {
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "#crc32 %08x\n", Crc32(payload));
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open: " + tmp);
  bool ok =
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  ok = ok && std::fputs(trailer, f) >= 0;
  ok = ok && std::fflush(f) == 0;
  ok = ok && ::fsync(fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("write failed: " + tmp);
  }
  if (SEL_FAULT_POINT("io.save.rename")) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed (injected fault): " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed: " + path);
  }
  return Status::OK();
}

/// Verifies the "#crc32 <hex>" trailer when `contents` ends with one.
/// Files written before the trailer existed (no trailer line) load
/// unverified — legacy-compatible; a present-but-wrong trailer means the
/// payload was torn or bit-rotted and is rejected as corrupt.
Status VerifyCrcTrailer(const std::string& contents,
                        const std::string& path) {
  size_t start = std::string::npos;
  const size_t pos = contents.rfind("\n#crc32 ");
  if (pos != std::string::npos) {
    start = pos + 1;
  } else if (contents.rfind("#crc32 ", 0) == 0) {
    start = 0;
  }
  if (start == std::string::npos) return Status::OK();
  const size_t eol = contents.find('\n', start);
  const std::string line = contents.substr(
      start, eol == std::string::npos ? std::string::npos : eol - start);
  if (eol != std::string::npos &&
      !Trim(contents.substr(eol + 1)).empty()) {
    // A "#crc32" comment mid-payload is not the trailer; nothing to check.
    return Status::OK();
  }
  uint32_t stored = 0;
  if (std::sscanf(line.c_str(), "#crc32 %8" SCNx32, &stored) != 1) {
    return Status::IOError("malformed crc32 trailer in " + path);
  }
  const uint32_t actual = Crc32(contents.substr(0, start));
  if (actual != stored) {
    char msg[64];
    std::snprintf(msg, sizeof(msg), "crc32 mismatch (stored %08x, got %08x)",
                  stored, actual);
    return Status::IOError(std::string(msg) + ": corrupt model file " + path);
  }
  return Status::OK();
}

/// Iterates the non-comment record lines of `ctx`, enforcing the
/// expected tag and the header's record count. `parse` consumes the
/// stream positioned after the tag.
Status ForEachRecord(
    ModelLoadContext& ctx, const std::string& expected_tag,
    const std::function<Status(std::istringstream&)>& parse) {
  std::string line;
  size_t records = 0;
  while (std::getline(*ctx.in, line)) {
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream ls(t);
    std::string tag;
    ls >> tag;
    if (tag != expected_tag) {
      return Status::IOError("unexpected record '" + tag + "' for kind '" +
                             ctx.kind + "' in " + ctx.path);
    }
    SEL_RETURN_IF_ERROR(parse(ls));
    ++records;
  }
  if (records != ctx.num_buckets) {
    return Status::IOError("record count mismatch in " + ctx.path);
  }
  return Status::OK();
}

/// Maps a model whose records parsed but do not lower (all-zero weights,
/// a box whose inverse volume is not finite) to the loader's IOError.
Result<std::unique_ptr<SelectivityModel>> Lowered(
    Result<std::unique_ptr<SelectivityModel>> model,
    const ModelLoadContext& ctx) {
  if (!model.ok()) {
    return Status::IOError("unservable model in " + ctx.path + ": " +
                           model.status().message());
  }
  return model;
}

}  // namespace

Status WriteBoxModel(std::ostream& out, const std::string& kind,
                     const std::vector<Box>& buckets, const Vector& weights) {
  if (buckets.empty() || buckets.size() != weights.size()) {
    return Status::InvalidArgument(
        "WriteBoxModel: buckets/weights empty or misaligned");
  }
  SEL_RETURN_IF_ERROR(
      WriteHeader(out, kind, buckets[0].dim(), buckets.size()));
  for (size_t i = 0; i < buckets.size(); ++i) {
    out << "box";
    WriteVector(out, buckets[i].lo());
    WriteVector(out, buckets[i].hi());
    out << ' ' << FormatExact(weights[i]) << "\n";
  }
  return out.good() ? Status::OK() : Status::IOError("write failed");
}

Status WritePointModel(std::ostream& out, const std::string& kind,
                       const std::vector<Point>& points,
                       const Vector& weights) {
  if (points.empty() || points.size() != weights.size()) {
    return Status::InvalidArgument(
        "WritePointModel: points/weights empty or misaligned");
  }
  SEL_RETURN_IF_ERROR(WriteHeader(out, kind,
                                  static_cast<int>(points[0].size()),
                                  points.size()));
  for (size_t i = 0; i < points.size(); ++i) {
    out << "point";
    WriteVector(out, points[i]);
    out << ' ' << FormatExact(weights[i]) << "\n";
  }
  return out.good() ? Status::OK() : Status::IOError("write failed");
}

Status WriteGaussModel(std::ostream& out, const std::string& kind,
                       const std::vector<Point>& means,
                       const std::vector<Point>& stddevs,
                       const Vector& weights) {
  if (means.empty() || means.size() != stddevs.size() ||
      means.size() != weights.size()) {
    return Status::InvalidArgument(
        "WriteGaussModel: means/stddevs/weights empty or misaligned");
  }
  SEL_RETURN_IF_ERROR(WriteHeader(out, kind,
                                  static_cast<int>(means[0].size()),
                                  means.size()));
  for (size_t i = 0; i < means.size(); ++i) {
    out << "gauss";
    WriteVector(out, means[i]);
    WriteVector(out, stddevs[i]);
    out << ' ' << FormatExact(weights[i]) << "\n";
  }
  return out.good() ? Status::OK() : Status::IOError("write failed");
}

Result<std::unique_ptr<SelectivityModel>> LoadBoxModel(
    ModelLoadContext& ctx) {
  std::vector<Box> boxes;
  Vector weights;
  const Status st = ForEachRecord(
      ctx, "box", [&](std::istringstream& ls) -> Status {
        Point lo, hi;
        double w = 0.0;
        if (!ReadDoubles(ls, ctx.dim, &lo) || !ReadDoubles(ls, ctx.dim, &hi) ||
            !ReadWeight(ls, &w)) {
          return Status::IOError("malformed box record in " + ctx.path);
        }
        for (int j = 0; j < ctx.dim; ++j) {
          if (lo[j] > hi[j]) {
            return Status::IOError("box with lo > hi in " + ctx.path);
          }
        }
        boxes.emplace_back(std::move(lo), std::move(hi));
        weights.push_back(w);
        return Status::OK();
      });
  if (!st.ok()) return st;
  return Lowered(
      StaticHistogram::Create(std::move(boxes), std::move(weights)), ctx);
}

Result<std::unique_ptr<SelectivityModel>> LoadPointModel(
    ModelLoadContext& ctx) {
  std::vector<Point> points;
  Vector weights;
  const Status st = ForEachRecord(
      ctx, "point", [&](std::istringstream& ls) -> Status {
        Point p;
        double w = 0.0;
        if (!ReadDoubles(ls, ctx.dim, &p) || !ReadWeight(ls, &w)) {
          return Status::IOError("malformed point record in " + ctx.path);
        }
        points.push_back(std::move(p));
        weights.push_back(w);
        return Status::OK();
      });
  if (!st.ok()) return st;
  return Lowered(
      StaticPointModel::Create(std::move(points), std::move(weights)), ctx);
}

Result<std::unique_ptr<SelectivityModel>> LoadGaussModel(
    ModelLoadContext& ctx) {
  std::vector<Point> means, stddevs;
  Vector weights;
  const Status st = ForEachRecord(
      ctx, "gauss", [&](std::istringstream& ls) -> Status {
        Point mean, sd;
        double w = 0.0;
        if (!ReadDoubles(ls, ctx.dim, &mean) ||
            !ReadDoubles(ls, ctx.dim, &sd) || !ReadWeight(ls, &w)) {
          return Status::IOError("malformed gauss record in " + ctx.path);
        }
        for (double s : sd) {
          if (s <= 0.0) {
            return Status::IOError("non-positive stddev in " + ctx.path);
          }
        }
        means.push_back(std::move(mean));
        stddevs.push_back(std::move(sd));
        weights.push_back(w);
        return Status::OK();
      });
  if (!st.ok()) return st;
  return std::unique_ptr<SelectivityModel>(new GmmModel(
      GmmModel::FromParameters(std::move(means), std::move(stddevs),
                               std::move(weights))));
}

Status WritePlanModel(std::ostream& out, const CompiledPlan& plan) {
  SEL_RETURN_IF_ERROR(WriteHeader(out, "plan", plan.dim(), plan.size()));
  // Metadata records: the lowering source and the volume options the
  // plan's non-box kernels evaluate with.
  out << "psrc " << plan.source() << "\n";
  out << "popts " << plan.volume_options().qmc_samples << ' '
      << plan.volume_options().halfspace_exact_max_dim << "\n";
  const size_t d = static_cast<size_t>(plan.dim());
  const auto& lo = plan.box_lo();
  const auto& hi = plan.box_hi();
  for (size_t j = 0; j < plan.num_box_entries(); ++j) {
    out << "pbox";
    for (size_t c = 0; c < d; ++c) out << ' ' << FormatExact(lo[j * d + c]);
    for (size_t c = 0; c < d; ++c) out << ' ' << FormatExact(hi[j * d + c]);
    out << ' ' << FormatExact(plan.box_weight()[j]) << ' '
        << FormatExact(plan.box_inv_vol()[j]) << "\n";
  }
  for (size_t j = 0; j < plan.num_point_entries(); ++j) {
    out << "ppoint";
    for (size_t c = 0; c < d; ++c) {
      out << ' ' << FormatExact(plan.point_coord(j, static_cast<int>(c)));
    }
    out << ' ' << FormatExact(plan.point_weight()[j]) << "\n";
  }
  return out.good() ? Status::OK() : Status::IOError("write failed");
}

Result<std::unique_ptr<SelectivityModel>> LoadPlanModel(
    ModelLoadContext& ctx) {
  // Plans mix pbox and ppoint records (plus metadata), so this loader
  // walks the lines itself instead of going through ForEachRecord's
  // single-tag contract.
  CompiledPlan::Parts parts;
  parts.dim = ctx.dim;
  parts.source = "plan";
  std::string line;
  size_t records = 0;
  while (std::getline(*ctx.in, line)) {
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream ls(t);
    std::string tag;
    ls >> tag;
    if (tag == "psrc") {
      std::string src;
      if (ls >> src) parts.source = src;
    } else if (tag == "popts") {
      int qmc = 0, hmax = 0;
      if (!(ls >> qmc >> hmax) || qmc < 1 || hmax < 0) {
        return Status::IOError("malformed popts record in " + ctx.path);
      }
      parts.volume.qmc_samples = qmc;
      parts.volume.halfspace_exact_max_dim = hmax;
    } else if (tag == "pbox") {
      Point lo, hi;
      double w = 0.0, iv = 0.0;
      if (!ReadDoubles(ls, ctx.dim, &lo) || !ReadDoubles(ls, ctx.dim, &hi) ||
          !ReadWeight(ls, &w) || !ReadWeight(ls, &iv)) {
        return Status::IOError("malformed pbox record in " + ctx.path);
      }
      for (int j = 0; j < ctx.dim; ++j) {
        if (lo[j] > hi[j]) {
          return Status::IOError("pbox with lo > hi in " + ctx.path);
        }
      }
      if (iv <= 0.0) {
        return Status::IOError("pbox with non-positive inv_vol in " +
                               ctx.path);
      }
      parts.box_lo.insert(parts.box_lo.end(), lo.begin(), lo.end());
      parts.box_hi.insert(parts.box_hi.end(), hi.begin(), hi.end());
      parts.box_weight.push_back(w);
      parts.box_inv_vol.push_back(iv);
      ++records;
    } else if (tag == "ppoint") {
      Point p;
      double w = 0.0;
      if (!ReadDoubles(ls, ctx.dim, &p) || !ReadWeight(ls, &w)) {
        return Status::IOError("malformed ppoint record in " + ctx.path);
      }
      parts.points.push_back(std::move(p));
      parts.point_weight.push_back(w);
      ++records;
    } else {
      return Status::IOError("unexpected record '" + tag + "' for kind '" +
                             ctx.kind + "' in " + ctx.path);
    }
  }
  if (records != ctx.num_buckets) {
    return Status::IOError("record count mismatch in " + ctx.path);
  }
  auto plan = CompiledPlan::FromParts(std::move(parts));
  if (!plan.ok()) {
    return Status::IOError("invalid plan in " + ctx.path + ": " +
                           plan.status().message());
  }
  return std::unique_ptr<SelectivityModel>(
      new PlanModel(std::move(plan).value()));
}

Status SaveModel(const SelectivityModel& model, const std::string& path) {
  SEL_TRACE_SPAN("io.save_model");
  const std::string name = model.RegistryName();
  const EstimatorRegistry& registry = EstimatorRegistry::Global();
  const EstimatorRegistry::Entry* entry = registry.Find(name);
  if (entry == nullptr) return registry.UnknownEstimatorError(name);
  if (entry->save == nullptr) {
    return Status::Unimplemented(
        "estimator '" + name + "' does not support serialization; savable "
        "estimators: " + Join(registry.SavableNames(), ", "));
  }
  // Render in memory first: only a complete, CRC-stamped payload ever
  // reaches the filesystem, via temp-file + fsync + atomic rename.
  std::ostringstream out;
  const Status st = entry->save(model, out);
  if (!st.ok()) {
    SEL_METRIC_COUNTER_INC("io.model.errors_total");
    return st;
  }
  const std::string payload = out.str();
  const Status committed = CommitModelFile(path, payload);
  if (!committed.ok()) {
    SEL_METRIC_COUNTER_INC("io.model.errors_total");
    return committed;
  }
  if (!payload.empty()) {
    SEL_METRIC_COUNTER_ADD("io.model.write_bytes",
                           static_cast<uint64_t>(payload.size()));
  }
  return Status::OK();
}

namespace {

Result<std::unique_ptr<SelectivityModel>> LoadModelImpl(
    const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return Status::IOError("cannot open: " + path);
  if (SEL_FAULT_POINT("io.model_short_read")) {
    return Status::IOError("short read (injected fault): " + path);
  }
  std::ostringstream slurp;
  slurp << file.rdbuf();
  if (file.bad()) return Status::IOError("read failed: " + path);
  const std::string contents = slurp.str();
  const size_t file_size = contents.size();
  SEL_RETURN_IF_ERROR(VerifyCrcTrailer(contents, path));
  std::istringstream in(contents);

  std::string line;
  std::string kind;
  int version = 0, dim = 0;
  size_t num_buckets = 0;
  // Find the header (skipping comments/blank lines).
  while (std::getline(in, line)) {
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream hs(t);
    std::string magic;
    hs >> magic >> version >> kind >> dim >> num_buckets;
    if (magic != "selmodel" || hs.fail()) {
      return Status::IOError("bad model header in " + path);
    }
    break;
  }
  if (kind.empty()) return Status::IOError("missing model header: " + path);
  if (version != kFormatVersion) {
    return Status::IOError("unsupported model format version in " + path);
  }
  if (dim < 1 || num_buckets == 0) {
    return Status::IOError("invalid model dimensions in " + path);
  }

  const EstimatorRegistry::Entry* entry =
      EstimatorRegistry::Global().Find(CanonicalKind(kind));
  if (entry == nullptr || entry->load == nullptr) {
    return Status::IOError("unknown model kind '" + kind + "' in " + path);
  }
  ModelLoadContext ctx;
  ctx.dim = dim;
  ctx.num_buckets = num_buckets;
  ctx.in = &in;
  ctx.kind = kind;
  ctx.path = path;
  auto loaded = entry->load(ctx);
  if (loaded.ok() && file_size > 0) {
    SEL_METRIC_COUNTER_ADD("io.model.read_bytes",
                           static_cast<uint64_t>(file_size));
  }
  return loaded;
}

}  // namespace

Result<std::unique_ptr<SelectivityModel>> LoadModel(const std::string& path) {
  SEL_TRACE_SPAN("io.load_model");
  auto result = LoadModelImpl(path);
  if (!result.ok()) SEL_METRIC_COUNTER_INC("io.model.errors_total");
  return result;
}

Result<int> PeekModelDim(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return Status::IOError("cannot open: " + path);
  std::string line;
  while (std::getline(file, line)) {
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream hs(t);
    std::string magic, kind;
    int version = 0, dim = 0;
    hs >> magic >> version >> kind >> dim;
    if (magic != "selmodel" || hs.fail() || dim < 1) {
      return Status::IOError("bad model header in " + path);
    }
    return dim;
  }
  return Status::IOError("missing model header: " + path);
}

Status SaveHistogramModel(const std::vector<Box>& buckets,
                          const Vector& weights, const std::string& path) {
  if (buckets.empty() || buckets.size() != weights.size()) {
    return Status::InvalidArgument(
        "SaveHistogramModel: buckets/weights empty or misaligned");
  }
  std::ostringstream out;
  SEL_RETURN_IF_ERROR(WriteBoxModel(out, "histogram", buckets, weights));
  return CommitModelFile(path, out.str());
}

Status SavePointModel(const std::vector<Point>& points,
                      const Vector& weights, const std::string& path) {
  if (points.empty() || points.size() != weights.size()) {
    return Status::InvalidArgument(
        "SavePointModel: points/weights empty or misaligned");
  }
  std::ostringstream out;
  SEL_RETURN_IF_ERROR(WritePointModel(out, "points", points, weights));
  return CommitModelFile(path, out.str());
}

Status SaveGmmModel(const GmmModel& model, const std::string& path) {
  if (model.Means().empty()) {
    return Status::FailedPrecondition("SaveGmmModel: model not trained");
  }
  std::ostringstream out;
  SEL_RETURN_IF_ERROR(WriteGaussModel(out, "gmm", model.Means(),
                                      model.Stddevs(), model.Weights()));
  return CommitModelFile(path, out.str());
}

}  // namespace sel
