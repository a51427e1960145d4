#include "workload/distributions.hpp"

#include <stdexcept>

namespace tcn::workload {
namespace {

using Point = sim::Ecdf::Point;

sim::Ecdf make_web_search() {
  // DCTCP web search workload; points in KB from the standard CDF file,
  // converted to bytes. ~60% of bytes come from flows < 10MB (Sec. 6,
  // "Benchmark traffic").
  return sim::Ecdf(
      {
          {1'000, 0.00},     {6'000, 0.15},    {13'000, 0.20},
          {19'000, 0.30},    {33'000, 0.40},   {53'000, 0.53},
          {133'000, 0.60},   {667'000, 0.70},  {1'467'000, 0.80},
          {3'333'000, 0.90}, {6'667'000, 0.97}, {20'000'000, 1.00},
      },
      "web-search");
}

sim::Ecdf make_data_mining() {
  // VL2 data mining workload: ~80% of flows are tiny (<10KB) while a handful
  // of huge flows carry almost all bytes.
  return sim::Ecdf(
      {
          {1'000, 0.00},      {2'000, 0.50},      {3'000, 0.60},
          {7'000, 0.70},      {267'000, 0.80},    {2'107'000, 0.90},
          {66'667'000, 0.95}, {666'667'000, 1.00},
      },
      "data-mining");
}

sim::Ecdf make_hadoop() {
  // Reconstruction of the Facebook Hadoop workload (Roy et al. 2015):
  // mostly sub-100KB shuffle chunks with a long tail of multi-hundred-MB
  // transfers.
  return sim::Ecdf(
      {
          {150, 0.00},         {1'000, 0.20},      {10'000, 0.50},
          {100'000, 0.70},     {1'000'000, 0.85},  {10'000'000, 0.95},
          {100'000'000, 0.99}, {1'000'000'000, 1.00},
      },
      "hadoop");
}

sim::Ecdf make_cache() {
  // Reconstruction of the Facebook cache-follower workload (Roy et al.
  // 2015): dominated by small object fetches, capped at tens of MB.
  return sim::Ecdf(
      {
          {300, 0.00},      {1'000, 0.30},     {2'000, 0.50},
          {5'000, 0.70},    {10'000, 0.80},    {100'000, 0.90},
          {1'000'000, 0.97}, {10'000'000, 1.00},
      },
      "cache");
}

}  // namespace

const std::vector<Kind>& all_kinds() {
  static const std::vector<Kind> kinds = {Kind::kWebSearch, Kind::kDataMining,
                                          Kind::kHadoop, Kind::kCache};
  return kinds;
}

const sim::Ecdf& distribution(Kind k) {
  static const sim::Ecdf web = make_web_search();
  static const sim::Ecdf mining = make_data_mining();
  static const sim::Ecdf hadoop = make_hadoop();
  static const sim::Ecdf cache = make_cache();
  switch (k) {
    case Kind::kWebSearch: return web;
    case Kind::kDataMining: return mining;
    case Kind::kHadoop: return hadoop;
    case Kind::kCache: return cache;
  }
  throw std::invalid_argument("workload::distribution: bad kind");
}

std::string name(Kind k) {
  switch (k) {
    case Kind::kWebSearch: return "web-search";
    case Kind::kDataMining: return "data-mining";
    case Kind::kHadoop: return "hadoop";
    case Kind::kCache: return "cache";
  }
  throw std::invalid_argument("workload::name: bad kind");
}

Kind from_name(const std::string& text) {
  std::string names;
  for (const Kind k : all_kinds()) {
    std::string canon = name(k);
    names += (names.empty() ? "" : "|") + canon;
    if (text == canon) return k;
    std::erase(canon, '-');
    if (text == canon) return k;
  }
  throw std::invalid_argument("unknown workload '" + text + "' (" + names +
                              "; hyphens optional)");
}

}  // namespace tcn::workload
