#include "engine/materialized_view.h"

#include "engine/group_table.h"
#include "engine/key_codec.h"

namespace olapidx {

MaterializedView::MaterializedView(const CubeSchema& schema,
                                   AttributeSet attrs)
    : schema_(schema), attrs_(attrs) {
  attr_list_ = attrs.ToVector();
  column_of_.assign(static_cast<size_t>(schema.num_dimensions()), -1);
  for (size_t i = 0; i < attr_list_.size(); ++i) {
    column_of_[static_cast<size_t>(attr_list_[i])] = static_cast<int>(i);
  }
  columns_.resize(attr_list_.size());
}

template <typename DimFn, typename StateFn>
void MaterializedView::Aggregate(size_t rows, DimFn&& dim_of,
                                 StateFn&& state_of) {
  KeyCodec codec(schema_, attr_list_);
  GroupTable groups;
  std::vector<uint32_t> dims(
      static_cast<size_t>(schema_.num_dimensions()), 0);
  for (size_t r = 0; r < rows; ++r) {
    for (int a : attr_list_) {
      dims[static_cast<size_t>(a)] = dim_of(r, a);
    }
    groups.Merge(codec.EncodeRow(dims), state_of(r));
  }
  for (auto& col : columns_) col.reserve(groups.size());
  states_.reserve(groups.size());
  groups.ForEachSorted([&](uint64_t key, const AggregateState& state) {
    for (size_t i = 0; i < attr_list_.size(); ++i) {
      columns_[i].push_back(codec.Decode(key, static_cast<int>(i)));
    }
    states_.push_back(state);
  });
}

MaterializedView MaterializedView::FromFactTable(const FactTable& fact,
                                                 AttributeSet attrs) {
  MaterializedView view(fact.schema(), attrs);
  view.Aggregate(
      fact.num_rows(), [&](size_t r, int a) { return fact.dim(r, a); },
      [&](size_t r) {
        return AggregateState::OfMeasure(fact.measure(r));
      });
  return view;
}

MaterializedView MaterializedView::FromView(const MaterializedView& parent,
                                            AttributeSet attrs) {
  OLAPIDX_CHECK(attrs.IsSubsetOf(parent.attrs()));
  MaterializedView view(parent.schema_, attrs);  // copies the schema
  view.Aggregate(
      parent.num_rows(), [&](size_t r, int a) { return parent.dim(r, a); },
      [&](size_t r) { return parent.states_[r]; });
  return view;
}

std::vector<uint32_t> MaterializedView::RowKey(size_t row) const {
  std::vector<uint32_t> key(attr_list_.size());
  for (size_t i = 0; i < attr_list_.size(); ++i) key[i] = columns_[i][row];
  return key;
}

size_t MaterializedView::ApplyDelta(const FactTable& fact, size_t begin_row,
                                    size_t end_row) {
  OLAPIDX_CHECK(begin_row <= end_row);
  OLAPIDX_CHECK(end_row <= fact.num_rows());
  if (begin_row == end_row) return 0;

  // Aggregate the delta.
  KeyCodec codec(schema_, attr_list_);
  GroupTable delta;
  std::vector<uint32_t> dims(
      static_cast<size_t>(schema_.num_dimensions()), 0);
  for (size_t r = begin_row; r < end_row; ++r) {
    for (int a : attr_list_) {
      dims[static_cast<size_t>(a)] = fact.dim(r, a);
    }
    delta.Merge(codec.EncodeRow(dims),
                AggregateState::OfMeasure(fact.measure(r)));
  }

  // The view's rows are sorted by encoded key; encode each row once.
  std::vector<uint64_t> row_keys(num_rows());
  for (size_t row = 0; row < num_rows(); ++row) {
    for (size_t i = 0; i < attr_list_.size(); ++i) {
      dims[static_cast<size_t>(attr_list_[i])] = columns_[i][row];
    }
    row_keys[row] = codec.EncodeRow(dims);
  }

  // Walk the sorted delta against the sorted rows: merge existing groups
  // in place and collect genuinely new ones, already in key order.
  size_t touched = 0;
  size_t row = 0;
  std::vector<uint64_t> new_keys;
  std::vector<AggregateState> new_states;
  delta.ForEachSorted([&](uint64_t key, const AggregateState& state) {
    while (row < row_keys.size() && row_keys[row] < key) ++row;
    if (row < row_keys.size() && row_keys[row] == key) {
      states_[row].Merge(state);
    } else {
      new_keys.push_back(key);
      new_states.push_back(state);
    }
    ++touched;
  });
  if (new_keys.empty()) return touched;

  // Merge the new groups into the rows, keeping them sorted by key.
  const size_t total = num_rows() + new_keys.size();
  std::vector<std::vector<uint32_t>> merged_columns(columns_.size());
  for (auto& col : merged_columns) col.reserve(total);
  std::vector<AggregateState> merged_states;
  merged_states.reserve(total);
  size_t old_row = 0;
  size_t fresh = 0;
  while (old_row < row_keys.size() || fresh < new_keys.size()) {
    if (fresh == new_keys.size() ||
        (old_row < row_keys.size() && row_keys[old_row] < new_keys[fresh])) {
      for (size_t i = 0; i < columns_.size(); ++i) {
        merged_columns[i].push_back(columns_[i][old_row]);
      }
      merged_states.push_back(states_[old_row++]);
    } else {
      for (size_t i = 0; i < columns_.size(); ++i) {
        merged_columns[i].push_back(
            codec.Decode(new_keys[fresh], static_cast<int>(i)));
      }
      merged_states.push_back(new_states[fresh++]);
    }
  }
  columns_ = std::move(merged_columns);
  states_ = std::move(merged_states);
  return touched;
}

}  // namespace olapidx
