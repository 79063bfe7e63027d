#include "core/query_view_graph.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <numeric>
#include <utility>

namespace olapidx {

// The edge sink: per-view accumulation state that ConsumeEdgeRuns()
// scatters run buffers into. Everything here is order-independent —
// duplicate labels min-merge, each class prototype belongs to its lowest
// query id, repeated entries merge in Finalize(), and columns are numbered
// by ascending owner — so the finalized tables do not depend on how the
// runs were split into batches or in which order the batches arrived.
struct QueryViewGraph::StreamView {
  // Parallel per-(query, view) entries — the future ViewQueries /
  // view-cost / column arrays, appended in arrival order and sorted once
  // in Finalize(). A query whose runs arrive together gets one entry.
  std::vector<uint32_t> entry_query;
  std::vector<double> entry_cost;   // view-edge (scan) cost, min-merged
  std::vector<int32_t> entry_slot;  // class slot, -1 = none (yet)
  // One slot per distinct non-zero column class seen at this view.
  std::vector<uint32_t> slot_key;    // the class id
  std::vector<uint32_t> slot_owner;  // lowest query seen in the class
  std::vector<double> slot_protos;   // [slot * num_indexes + k], min-merged
  // col_class == 0 index runs: each query is its own class. Sorted by
  // query in Finalize(), which then resolves one column per query without
  // a slot search.
  std::vector<EdgeRun> own_runs;
};

struct QueryViewGraph::StreamState {
  std::mutex mu;
  std::vector<StreamView> views;  // grown to num_views() on first use
  uint64_t state_bytes = 0;       // logical bytes of the accumulation state
  uint64_t peak_bytes = 0;        // high-water incl. in-flight batches
};

namespace {

// Logical bytes charged per sink entry / class slot (the parallel array
// elements above; vector bookkeeping is covered by the per-view
// sizeof(StreamView) charge).
constexpr uint64_t kStreamEntryBytes =
    sizeof(uint32_t) + sizeof(double) + sizeof(int32_t);
constexpr uint64_t kStreamSlotBytes = 2 * sizeof(uint32_t);

// Hand-built edges are sunk in batches of this many runs.
constexpr size_t kHandBuiltBatchRuns = size_t{1} << 14;

}  // namespace

QueryViewGraph::QueryViewGraph() : stream_(std::make_unique<StreamState>()) {}
QueryViewGraph::QueryViewGraph(QueryViewGraph&&) noexcept = default;
QueryViewGraph& QueryViewGraph::operator=(QueryViewGraph&&) noexcept =
    default;
QueryViewGraph::~QueryViewGraph() = default;

uint32_t QueryViewGraph::AddView(std::string name, double space) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(space > 0.0);
  ViewData vd;
  vd.name = std::move(name);
  vd.space = space;
  views_.push_back(std::move(vd));
  ++num_structures_;
  return static_cast<uint32_t>(views_.size() - 1);
}

int32_t QueryViewGraph::AddIndex(uint32_t view, std::string name,
                                 double space) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(space > 0.0);
  ViewData& vd = views_[view];
  OLAPIDX_CHECK(vd.lazy_keys.empty());  // a view is eager or lazy, not both
  vd.index_names.push_back(std::move(name));
  vd.index_spaces.push_back(space);
  vd.index_maintenance.push_back(0.0);
  ++num_structures_;
  return static_cast<int32_t>(vd.index_names.size() - 1);
}

void QueryViewGraph::SetNameDictionary(std::vector<std::string> attr_names) {
  attr_names_ = std::move(attr_names);
}

void QueryViewGraph::SetIndexNamer(
    std::function<std::string(uint32_t, int32_t)> namer) {
  index_namer_ = std::move(namer);
}

void QueryViewGraph::AddIndexesNamed(uint32_t view, int32_t count,
                                     double space_each,
                                     double maintenance_each) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(count >= 0);
  OLAPIDX_CHECK(space_each > 0.0);
  OLAPIDX_CHECK(maintenance_each >= 0.0);
  ViewData& vd = views_[view];
  OLAPIDX_CHECK(vd.index_names.empty());  // a view is eager or lazy, not both
  OLAPIDX_CHECK(vd.lazy_keys.empty());
  OLAPIDX_CHECK(vd.index_spaces.empty());
  vd.index_spaces.assign(static_cast<size_t>(count), space_each);
  vd.index_maintenance.assign(static_cast<size_t>(count), maintenance_each);
  num_structures_ += static_cast<uint32_t>(count);
}

void QueryViewGraph::AddIndexes(uint32_t view, std::vector<IndexKey> keys,
                                double space_each, double maintenance_each) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(space_each > 0.0);
  OLAPIDX_CHECK(maintenance_each >= 0.0);
  ViewData& vd = views_[view];
  OLAPIDX_CHECK(vd.index_names.empty());  // a view is eager or lazy, not both
  OLAPIDX_CHECK(vd.lazy_keys.empty());
  vd.lazy_keys = std::move(keys);
  vd.index_spaces.assign(vd.lazy_keys.size(), space_each);
  vd.index_maintenance.assign(vd.lazy_keys.size(), maintenance_each);
  num_structures_ += static_cast<uint32_t>(vd.lazy_keys.size());
}

uint32_t QueryViewGraph::AddQuery(std::string name, double default_cost,
                                  double frequency) {
  OLAPIDX_CHECK(!finalized_);
  OLAPIDX_CHECK(default_cost >= 0.0);
  OLAPIDX_CHECK(frequency >= 0.0);
  queries_.push_back(QueryData{std::move(name), default_cost, frequency});
  return static_cast<uint32_t>(queries_.size() - 1);
}

void QueryViewGraph::SetViewMaintenance(uint32_t view, double cost) {
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(cost >= 0.0);
  views_[view].maintenance = cost;
}

void QueryViewGraph::SetIndexMaintenance(uint32_t view, int32_t index,
                                         double cost) {
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(index >= 0 && index < num_indexes(view));
  OLAPIDX_CHECK(cost >= 0.0);
  views_[view].index_maintenance[static_cast<size_t>(index)] = cost;
}

void QueryViewGraph::ValidateRun(const EdgeRun& run) const {
  OLAPIDX_CHECK(run.query < num_queries());
  OLAPIDX_CHECK(run.view < num_views());
  OLAPIDX_CHECK(run.cost >= 0.0);
  if (run.index_begin != StructureRef::kNoIndex) {
    OLAPIDX_CHECK(run.index_begin >= 0 && run.index_begin < run.index_end &&
                  run.index_end <= num_indexes(run.view));
    // The documented class-id range: the cube builders use
    // (selection ∩ view) + 1, which reaches 2^n at the kMaxDimensions = 20
    // ceiling the sparse path supports.
    OLAPIDX_CHECK(run.col_class <= (1u << 20));
  }
}

void QueryViewGraph::AddHandBuiltRun(const EdgeRun& run) {
  OLAPIDX_CHECK(!finalized_);
  ValidateRun(run);
  pending_.push_back(run);
  if (pending_.size() == kHandBuiltBatchRuns) ConsumeEdgeRuns(pending_);
}

void QueryViewGraph::AddViewEdge(uint32_t query, uint32_t view, double cost) {
  AddHandBuiltRun(EdgeRun{query, view, StructureRef::kNoIndex,
                          StructureRef::kNoIndex, cost});
}

void QueryViewGraph::AddIndexEdge(uint32_t query, uint32_t view,
                                  int32_t index, double cost) {
  OLAPIDX_CHECK(view < num_views());
  OLAPIDX_CHECK(index >= 0 && index < num_indexes(view));
  AddHandBuiltRun(EdgeRun{query, view, index, index + 1, cost});
}

void QueryViewGraph::AddIndexEdgeRun(uint32_t query, uint32_t view,
                                     int32_t index_begin, int32_t index_end,
                                     double cost) {
  OLAPIDX_CHECK(index_begin != StructureRef::kNoIndex);
  AddHandBuiltRun(EdgeRun{query, view, index_begin, index_end, cost});
}

void QueryViewGraph::ConsumeEdgeRuns(std::vector<EdgeRun>& runs) {
  OLAPIDX_CHECK(!finalized_);
  for (const EdgeRun& run : runs) ValidateRun(run);
  StreamState& st = *stream_;
  std::lock_guard<std::mutex> lock(st.mu);
  if (st.views.size() < views_.size()) {
    st.state_bytes +=
        (views_.size() - st.views.size()) * sizeof(StreamView);
    st.views.resize(views_.size());
  }
  st.peak_bytes =
      std::max(st.peak_bytes,
               st.state_bytes + runs.size() * sizeof(EdgeRun));
  for (const EdgeRun& r : runs) {
    StreamView& sv = st.views[r.view];
    // Runs of one (query, view) usually arrive back to back (shards walk
    // their query range in order); any that do not get a second entry,
    // merged in Finalize().
    if (sv.entry_query.empty() || sv.entry_query.back() != r.query) {
      sv.entry_query.push_back(r.query);
      sv.entry_cost.push_back(kInfiniteCost);
      sv.entry_slot.push_back(-1);
      st.state_bytes += kStreamEntryBytes;
    }
    if (r.index_begin == StructureRef::kNoIndex) {
      double& c = sv.entry_cost.back();
      c = std::min(c, r.cost);
      continue;
    }
    if (r.col_class == 0) {
      sv.own_runs.push_back(r);
      st.state_bytes += sizeof(EdgeRun);
      continue;
    }
    // A query has one class per view, so only its first index run at this
    // entry searches the slots. Distinct classes per view are few; a
    // linear probe beats a per-view hash map here.
    const size_t ni = views_[r.view].index_spaces.size();
    int32_t& entry_slot = sv.entry_slot.back();
    if (entry_slot < 0) {
      const uint32_t nslots = static_cast<uint32_t>(sv.slot_key.size());
      uint32_t s = 0;
      while (s < nslots && sv.slot_key[s] != r.col_class) ++s;
      if (s == nslots) {
        sv.slot_key.push_back(r.col_class);
        sv.slot_owner.push_back(r.query);
        sv.slot_protos.resize(sv.slot_protos.size() + ni, kInfiniteCost);
        st.state_bytes += kStreamSlotBytes + ni * sizeof(double);
      }
      entry_slot = static_cast<int32_t>(s);
    }
    const size_t slot = static_cast<size_t>(entry_slot);
    OLAPIDX_DCHECK(sv.slot_key[slot] == r.col_class);
    double* row = sv.slot_protos.data() + slot * ni;
    if (r.query < sv.slot_owner[slot]) {
      // A lower query id claims the class: its runs, not the old owner's,
      // define the prototype, whatever order the batches came in.
      sv.slot_owner[slot] = r.query;
      std::fill_n(row, ni, kInfiniteCost);
    }
    if (r.query == sv.slot_owner[slot]) {
      for (int32_t k = r.index_begin; k < r.index_end; ++k) {
        double& c = row[static_cast<size_t>(k)];
        c = std::min(c, r.cost);
      }
    }
  }
  st.peak_bytes = std::max(st.peak_bytes, st.state_bytes);
  runs.clear();
}

uint64_t QueryViewGraph::StreamingPeakBytes() const {
  return stream_ != nullptr ? stream_->peak_bytes : streaming_peak_bytes_;
}

void QueryViewGraph::Finalize() {
  OLAPIDX_CHECK(!finalized_);
  ConsumeEdgeRuns(pending_);
  pending_.shrink_to_fit();
  StreamState& st = *stream_;
  const size_t nv = views_.size();
  std::vector<uint32_t> perm;  // entry sort permutation
  // Column sources: class slot s, or nslots + j for the j-th own query.
  std::vector<uint32_t> col_src;
  std::vector<uint32_t> col_owner;  // parallel to col_src
  std::vector<uint32_t> col_of_src;
  std::vector<size_t> own_begin;  // own_runs range of each own query
  uint64_t running = st.state_bytes;  // sink state + finished tables
  uint64_t scratch_max = 0;
  for (uint32_t v = 0; v < nv; ++v) {
    StreamView& sv = st.views[v];
    ViewData& vd = views_[v];
    const size_t ne = sv.entry_query.size();
    const size_t nslots = sv.slot_key.size();
    const size_t ni = vd.index_spaces.size();
    const uint64_t sv_bytes = ne * kStreamEntryBytes +
                              nslots * kStreamSlotBytes +
                              sv.slot_protos.size() * sizeof(double) +
                              sv.own_runs.size() * sizeof(EdgeRun);
    if (ne != 0) {
      // col_class == 0 runs, grouped by query: one own column each.
      std::sort(sv.own_runs.begin(), sv.own_runs.end(),
                [](const EdgeRun& a, const EdgeRun& b) {
                  return a.query < b.query;
                });
      own_begin.clear();
      col_owner.assign(sv.slot_owner.begin(), sv.slot_owner.end());
      for (size_t i = 0; i < sv.own_runs.size(); ++i) {
        if (i == 0 || sv.own_runs[i].query != sv.own_runs[i - 1].query) {
          own_begin.push_back(i);
          col_owner.push_back(sv.own_runs[i].query);
        }
      }
      own_begin.push_back(sv.own_runs.size());
      const size_t nown = own_begin.size() - 1;
      const size_t ncols = nslots + nown;
      // Number columns by ascending owner — the same numbering for any
      // order in which the slots were opened. Owners are distinct (each
      // query has one class per view).
      col_src.resize(ncols);
      std::iota(col_src.begin(), col_src.end(), 0u);
      std::sort(col_src.begin(), col_src.end(), [&](uint32_t a, uint32_t b) {
        return col_owner[a] < col_owner[b];
      });
      col_of_src.resize(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        col_of_src[col_src[c]] = static_cast<uint32_t>(c);
      }
      // Entries arrived in per-batch query order; sort globally and merge
      // the duplicates a query split across batches produces.
      perm.resize(ne);
      std::iota(perm.begin(), perm.end(), 0u);
      std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
        return sv.entry_query[a] < sv.entry_query[b];
      });
      const uint32_t sentinel = static_cast<uint32_t>(ncols);
      vd.num_cols = sentinel + 1;
      vd.queries.reserve(ne);
      vd.view_cost.reserve(ne);
      vd.col_of_pos.reserve(ne);
      size_t own = 0;  // own queries ascend like the sorted entries
      for (uint32_t idx : perm) {
        const uint32_t q = sv.entry_query[idx];
        while (own < nown && col_owner[nslots + own] < q) ++own;
        const int32_t slot = sv.entry_slot[idx];
        uint32_t col = sentinel;
        if (slot >= 0) {
          col = col_of_src[static_cast<size_t>(slot)];
        } else if (own < nown && col_owner[nslots + own] == q) {
          col = col_of_src[nslots + own];
        }
        if (!vd.queries.empty() && vd.queries.back() == q) {
          vd.view_cost.back() =
              std::min(vd.view_cost.back(), sv.entry_cost[idx]);
          if (col != sentinel) vd.col_of_pos.back() = col;
          continue;
        }
        vd.queries.push_back(q);
        vd.view_cost.push_back(sv.entry_cost[idx]);
        vd.col_of_pos.push_back(col);
      }
      // The permuted copy into k-major order: for each k, gather every
      // class prototype's k-th cost (the source rows stay cache-resident
      // across consecutive k), then min-merge the own runs in place.
      const size_t nc = vd.num_cols;
      vd.col_protos.assign(ni * nc, kInfiniteCost);
      double* out = vd.col_protos.data();
      for (size_t k = 0; k < ni; ++k) {
        double* dst = out + k * nc;
        for (size_t s = 0; s < nslots; ++s) {
          dst[col_of_src[s]] = sv.slot_protos[s * ni + k];
        }
      }
      for (size_t j = 0; j < nown; ++j) {
        const size_t col = col_of_src[nslots + j];
        for (size_t i = own_begin[j]; i < own_begin[j + 1]; ++i) {
          const EdgeRun& r = sv.own_runs[i];
          for (int32_t k = r.index_begin; k < r.index_end; ++k) {
            double& c = out[static_cast<size_t>(k) * nc + col];
            c = std::min(c, r.cost);
          }
        }
      }
      running += (vd.view_cost.size() + vd.col_protos.size()) *
                     sizeof(double) +
                 (vd.queries.size() + vd.col_of_pos.size()) *
                     sizeof(uint32_t);
      const uint64_t scratch =
          (perm.size() + 3 * col_src.size()) * sizeof(uint32_t) +
          own_begin.size() * sizeof(size_t);
      scratch_max = std::max(scratch_max, scratch);
      st.peak_bytes = std::max(st.peak_bytes, running + scratch);
    }
    // Free this view's sink state before moving on — the conversion never
    // holds more than one view's worth of both representations.
    sv = StreamView{};
    running -= sv_bytes;
  }
  finalize_scratch_bytes_ = scratch_max;
  streaming_peak_bytes_ = st.peak_bytes;
  stream_.reset();
  BuildQueryViews();
  finalized_ = true;
}

void QueryViewGraph::BuildQueryViews() {
  // Invert the view→queries adjacency. Views are visited in ascending
  // order, so each query's view list comes out sorted.
  query_views_.assign(queries_.size(), {});
  for (uint32_t v = 0; v < num_views(); ++v) {
    for (uint32_t q : views_[v].queries) {
      query_views_[q].push_back(v);
    }
  }
}

namespace {

// FNV-1a over 64-bit words: 8x fewer multiplies than the byte-wise form,
// which matters when hashing a large graph's cost tables.
inline uint64_t MixWord(uint64_t h, uint64_t word) {
  h ^= word;
  return h * 0x100000001b3ULL;
}

inline uint64_t MixDouble(uint64_t h, double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return MixWord(h, bits);
}

template <typename T>
uint64_t MixSpan(uint64_t h, const std::vector<T>& v) {
  h = MixWord(h, v.size());
  for (const T& x : v) {
    h = MixWord(h, static_cast<uint64_t>(x));
  }
  return h;
}

uint64_t MixDoubleSpan(uint64_t h, const std::vector<double>& v) {
  h = MixWord(h, v.size());
  for (double d : v) {
    h = MixDouble(h, d);
  }
  return h;
}

}  // namespace

uint64_t QueryViewGraph::Fingerprint() const {
  OLAPIDX_CHECK(finalized_);
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  h = MixWord(h, num_views());
  h = MixWord(h, num_queries());
  h = MixWord(h, num_structures_);
  for (const QueryData& q : queries_) {
    h = MixDouble(h, q.default_cost);
    h = MixDouble(h, q.frequency);
  }
  for (const ViewData& vd : views_) {
    h = MixDouble(h, vd.space);
    h = MixDouble(h, vd.maintenance);
    h = MixDoubleSpan(h, vd.index_spaces);
    h = MixDoubleSpan(h, vd.index_maintenance);
    h = MixSpan(h, vd.queries);
    h = MixDoubleSpan(h, vd.view_cost);
    h = MixDoubleSpan(h, vd.col_protos);
    h = MixSpan(h, vd.col_of_pos);
  }
  // 0 is reserved as "no fingerprint" in checkpoint files.
  return h == 0 ? 1 : h;
}

uint64_t QueryViewGraph::CostTableBytes() const {
  uint64_t bytes = 0;
  for (const ViewData& vd : views_) {
    bytes += (vd.view_cost.size() + vd.col_protos.size()) * sizeof(double);
    bytes += vd.col_of_pos.size() * sizeof(uint32_t);
    bytes += vd.queries.size() * sizeof(uint32_t);
  }
  return bytes;
}

double QueryViewGraph::DefaultTotalCost() const {
  double total = 0.0;
  for (const QueryData& q : queries_) {
    total += q.frequency * q.default_cost;
  }
  return total;
}

}  // namespace olapidx
