// Disjoint-set forest with path compression and union by size. Used to
// cluster same-as links into entities (deduplication).
#ifndef RULELINK_UTIL_UNION_FIND_H_
#define RULELINK_UTIL_UNION_FIND_H_

#include <cstddef>
#include <numeric>
#include <vector>

namespace rulelink::util {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  // Returns true when x and y were in different sets.
  bool Union(std::size_t x, std::size_t y) {
    std::size_t rx = Find(x);
    std::size_t ry = Find(y);
    if (rx == ry) return false;
    if (size_[rx] < size_[ry]) std::swap(rx, ry);
    parent_[ry] = rx;
    size_[rx] += size_[ry];
    return true;
  }

  bool Connected(std::size_t x, std::size_t y) {
    return Find(x) == Find(y);
  }

  std::size_t SetSize(std::size_t x) { return size_[Find(x)]; }
  std::size_t size() const { return parent_.size(); }

  // Groups of size >= min_size, each sorted, ordered by smallest member.
  std::vector<std::vector<std::size_t>> Groups(std::size_t min_size = 1);

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_UNION_FIND_H_
