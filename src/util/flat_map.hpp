// Sorted-vector flat map/set, after the Chrome //base/containers guidance
// (see SNIPPETS.md): most maps in this codebase are small, keyed by dense
// integer ids (variables, places, transitions) and built once then
// queried, which is exactly the profile where a sorted contiguous vector
// beats std::unordered_map -- no per-node mallocs, no hashing, cache-line
// friendly scans, and O(n log n) one-shot construction from a range.
// Individual inserts and erases are O(n), so these are the wrong tool for
// large mutate-heavy tables; the per-transition preset/postset sets
// (core/relation.cpp) never are.
//
// The interface follows STL naming (find / count / contains / insert /
// operator[]) so call sites read like the std containers they replace.
// Iteration order is the key order -- a behavioural upgrade over the
// unordered containers: everything downstream of an iteration becomes
// deterministic by construction.
#pragma once

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace stgcheck {

/// Sorted-unique-vector map. Keys are ordered by `Compare`; lookups are
/// binary searches, inserts keep the vector sorted.
template <typename Key, typename T, typename Compare = std::less<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, T>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;

  /// One-shot construction: sorts and uniques (first occurrence of a key
  /// wins, matching std::map's insert semantics for duplicate keys).
  template <typename It>
  FlatMap(It first, It last) : items_(first, last) {
    std::stable_sort(items_.begin(), items_.end(), [this](const auto& a, const auto& b) {
      return cmp_(a.first, b.first);
    });
    items_.erase(std::unique(items_.begin(), items_.end(),
                             [this](const auto& a, const auto& b) {
                               return !cmp_(a.first, b.first) &&
                                      !cmp_(b.first, a.first);
                             }),
                 items_.end());
  }

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  iterator find(const Key& key) {
    const iterator it = lower_bound(key);
    return it != items_.end() && !cmp_(key, it->first) ? it : items_.end();
  }
  const_iterator find(const Key& key) const {
    const const_iterator it = lower_bound(key);
    return it != items_.end() && !cmp_(key, it->first) ? it : items_.end();
  }
  std::size_t count(const Key& key) const { return find(key) != end() ? 1 : 0; }
  bool contains(const Key& key) const { return find(key) != end(); }

  /// Value of `key`; default-constructs (at the sorted position) if absent.
  T& operator[](const Key& key) {
    const iterator it = lower_bound(key);
    if (it != items_.end() && !cmp_(key, it->first)) return it->second;
    return items_.insert(it, value_type(key, T()))->second;
  }
  /// Value of an existing key (callers check contains() first; out-of-
  /// contract access is a programming error like std::map::find()->second
  /// on end(), so no exception machinery here).
  T& at(const Key& key) { return find(key)->second; }
  const T& at(const Key& key) const { return find(key)->second; }

  std::pair<iterator, bool> insert(value_type value) {
    const iterator it = lower_bound(value.first);
    if (it != items_.end() && !cmp_(value.first, it->first)) return {it, false};
    return {items_.insert(it, std::move(value)), true};
  }

  std::size_t erase(const Key& key) {
    const iterator it = find(key);
    if (it == items_.end()) return 0;
    items_.erase(it);
    return 1;
  }

 private:
  iterator lower_bound(const Key& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [this](const value_type& v, const Key& k) { return cmp_(v.first, k); });
  }
  const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [this](const value_type& v, const Key& k) { return cmp_(v.first, k); });
  }

  std::vector<value_type> items_;
  [[no_unique_address]] Compare cmp_{};
};

/// Sorted-unique-vector set; same tradeoffs as FlatMap.
template <typename Key, typename Compare = std::less<Key>>
class FlatSet {
 public:
  using iterator = typename std::vector<Key>::const_iterator;
  using const_iterator = iterator;

  FlatSet() = default;

  /// One-shot construction: sorts and uniques the range.
  template <typename It>
  FlatSet(It first, It last) : items_(first, last) {
    std::sort(items_.begin(), items_.end(), cmp_);
    items_.erase(std::unique(items_.begin(), items_.end(),
                             [this](const Key& a, const Key& b) {
                               return !cmp_(a, b) && !cmp_(b, a);
                             }),
                 items_.end());
  }

  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  const_iterator find(const Key& key) const {
    const auto it = std::lower_bound(items_.begin(), items_.end(), key, cmp_);
    return it != items_.end() && !cmp_(key, *it) ? it : items_.end();
  }
  std::size_t count(const Key& key) const { return find(key) != end() ? 1 : 0; }
  bool contains(const Key& key) const { return find(key) != end(); }

  std::pair<const_iterator, bool> insert(const Key& key) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), key, cmp_);
    if (it != items_.end() && !cmp_(key, *it)) return {it, false};
    return {items_.insert(it, key), true};
  }
  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  std::size_t erase(const Key& key) {
    const auto it = find(key);
    if (it == items_.end()) return 0;
    items_.erase(it);
    return 1;
  }

  /// The underlying sorted vector (for set algorithms over raw ranges).
  const std::vector<Key>& values() const { return items_; }

 private:
  std::vector<Key> items_;
  [[no_unique_address]] Compare cmp_{};
};

}  // namespace stgcheck
