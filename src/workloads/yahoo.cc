#include "workloads/yahoo.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"

namespace sstreaming {

namespace {
constexpr int64_t kSec = 1000000;
const char* kEventTypes[] = {"view", "click", "purchase"};
const char* kAdTypes[] = {"banner", "modal", "sponsored"};
}  // namespace

SchemaPtr YahooEventSchema() {
  return Schema::Make({{"user_id", TypeId::kInt64, false},
                       {"page_id", TypeId::kInt64, false},
                       {"ad_id", TypeId::kInt64, false},
                       {"ad_type", TypeId::kString, false},
                       {"event_type", TypeId::kString, false},
                       {"event_time", TypeId::kTimestamp, false}});
}

SchemaPtr YahooCampaignSchema() {
  return Schema::Make({{"ad_id", TypeId::kInt64, false},
                       {"campaign_id", TypeId::kInt64, false}});
}

Result<std::vector<Row>> GenerateYahooData(MessageBus* bus,
                                           const std::string& topic,
                                           const YahooConfig& config) {
  SS_RETURN_IF_ERROR(bus->CreateTopic(topic, config.num_partitions));
  Random rng(config.seed);
  const int64_t num_ads =
      static_cast<int64_t>(config.num_campaigns) * config.ads_per_campaign;

  // Campaign table: ad i belongs to campaign i / ads_per_campaign.
  std::vector<Row> campaigns;
  campaigns.reserve(static_cast<size_t>(num_ads));
  for (int64_t ad = 0; ad < num_ads; ++ad) {
    campaigns.push_back(
        {Value::Int64(ad), Value::Int64(ad / config.ads_per_campaign)});
  }

  // Events go straight into per-partition columns, one segment per
  // partition. They are drawn a block at a time in event order (the seeded
  // sequence), then written column by column: one sequential write stream
  // at a time instead of twelve per partition (value + validity per column)
  // interleaved, which ran ~2x slower on memory the allocator recycles.
  struct Draw {
    uint64_t user, page, ad, ad_type, event_type;
  };
  const int64_t np = config.num_partitions;
  const int64_t block = 1024 * np;  // 1024 events per partition
  const SchemaPtr schema = YahooEventSchema();
  std::vector<std::vector<ColumnPtr>> columns(static_cast<size_t>(np));
  for (std::vector<ColumnPtr>& c : columns) {
    for (const Field& f : schema->fields()) {
      c.push_back(Column::Make(f.type));
      c.back()->Reserve(config.num_events / np + 1);
    }
  }
  const int64_t span_micros = config.event_time_span_seconds * kSec;
  std::vector<Draw> draws;
  draws.reserve(static_cast<size_t>(block));
  for (int64_t b0 = 0; b0 < config.num_events; b0 += block) {
    const int64_t b1 = std::min(config.num_events, b0 + block);
    draws.clear();
    for (int64_t i = b0; i < b1; ++i) {
      draws.push_back({rng.Uniform(100000), rng.Uniform(1000),
                       rng.Uniform(static_cast<uint64_t>(num_ads)),
                       rng.Uniform(3), rng.Uniform(3)});
    }
    auto at = [&draws, b0](int64_t i) -> const Draw& {
      return draws[static_cast<size_t>(i - b0)];
    };
    // b0 is a multiple of np, so event i of the block is in partition i % np.
    for (int64_t p = 0; p < np; ++p) {
      std::vector<ColumnPtr>& c = columns[static_cast<size_t>(p)];
      for (int64_t i = b0 + p; i < b1; i += np) {
        c[0]->AppendInt64(static_cast<int64_t>(at(i).user));
      }
      for (int64_t i = b0 + p; i < b1; i += np) {
        c[1]->AppendInt64(static_cast<int64_t>(at(i).page));
      }
      for (int64_t i = b0 + p; i < b1; i += np) {
        c[2]->AppendInt64(static_cast<int64_t>(at(i).ad));
      }
      for (int64_t i = b0 + p; i < b1; i += np) {
        c[3]->AppendString(kAdTypes[at(i).ad_type]);
      }
      for (int64_t i = b0 + p; i < b1; i += np) {
        c[4]->AppendString(kEventTypes[at(i).event_type]);
      }
      for (int64_t i = b0 + p; i < b1; i += np) {
        c[5]->AppendInt64(i * span_micros / config.num_events);
      }
    }
  }
  for (size_t p = 0; p < columns.size(); ++p) {
    SS_RETURN_IF_ERROR(
        bus->AppendColumns(topic, static_cast<int>(p),
                           RecordBatch::Make(schema, std::move(columns[p])))
            .status());
  }
  return campaigns;
}

DataFrame YahooQuery(SourcePtr events, const std::vector<Row>& campaigns) {
  DataFrame campaign_df =
      DataFrame::FromRows(YahooCampaignSchema(), campaigns).TakeValue();
  return DataFrame::ReadStream(std::move(events))
      .Where(Eq(Col("event_type"), Lit("view")))
      .SelectColumns({"ad_id", "event_time"})
      .Join(campaign_df, {"ad_id"})
      .GroupBy({As(TumblingWindow(Col("event_time"), 10 * kSec), "window"),
                NamedExpr{Col("campaign_id"), "campaign_id"}})
      .Count();
}

std::map<std::pair<int64_t, int64_t>, int64_t> YahooReferenceCounts(
    const std::vector<Row>& events, const std::vector<Row>& campaigns) {
  std::map<int64_t, int64_t> ad_to_campaign;
  for (const Row& c : campaigns) {
    ad_to_campaign[c[0].int64_value()] = c[1].int64_value();
  }
  std::map<std::pair<int64_t, int64_t>, int64_t> counts;
  for (const Row& e : events) {
    if (e[4].string_value() != "view") continue;
    auto it = ad_to_campaign.find(e[2].int64_value());
    if (it == ad_to_campaign.end()) continue;
    int64_t window_start_sec = e[5].int64_value() / (10 * kSec) * 10;
    ++counts[{it->second, window_start_sec}];
  }
  return counts;
}

}  // namespace sstreaming
