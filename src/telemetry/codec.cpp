#include "telemetry/codec.hpp"

#include <stdexcept>
#include <vector>

#include "common/bytes.hpp"

namespace oda::telemetry {

using common::ByteReader;
using common::ByteWriter;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

stream::Record encode_packet(const TelemetryPacket& pkt) {
  ByteWriter w;
  w.i64(pkt.timestamp);
  w.u32(pkt.node_id);
  w.varint(pkt.readings.size());
  for (const auto& r : pkt.readings) {
    w.u16(r.sensor);
    w.f64(r.value);
  }
  stream::Record rec;
  rec.timestamp = pkt.timestamp;
  rec.key = "n" + std::to_string(pkt.node_id);
  auto bytes = w.take();
  rec.payload.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return rec;
}

void encode_packet_into(const TelemetryPacket& pkt, stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(pkt.timestamp);
  w.raw("n", 1);
  w.text_u64(pkt.node_id);
  staged.begin_payload();
  w.i64(pkt.timestamp);
  w.u32(pkt.node_id);
  w.varint(pkt.readings.size());
  for (const auto& r : pkt.readings) {
    w.u16(r.sensor);
    w.f64(r.value);
  }
  staged.end_record();
}

TelemetryPacket decode_packet(const stream::Record& r) {
  return decode_packet(std::string_view(r.payload));
}

TelemetryPacket decode_packet(std::string_view payload) {
  ByteReader br(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(payload.data()),
                                              payload.size()));
  TelemetryPacket pkt;
  pkt.timestamp = br.i64();
  pkt.node_id = br.u32();
  const std::uint64_t n = br.varint();
  pkt.readings.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    SensorReading sr;
    sr.sensor = br.u16();
    sr.value = br.f64();
    pkt.readings.push_back(sr);
  }
  return pkt;
}

Schema bronze_schema() {
  return Schema{{"time", DataType::kInt64},
                {"node_id", DataType::kInt64},
                {"sensor", DataType::kString},
                {"value", DataType::kFloat64}};
}

namespace {

/// SensorId::label() of every encoded id, built once (about 2 MiB: no
/// label is longer than 14 characters) and then read by all decoding
/// threads.
const std::string& sensor_label(std::uint16_t code) {
  static const std::vector<std::string> labels = [] {
    std::vector<std::string> v(std::size_t{1} << 16);
    for (std::size_t c = 0; c < v.size(); ++c) {
      v[c] = SensorId::decode(static_cast<std::uint16_t>(c)).label();
    }
    return v;
  }();
  return labels[code];
}

}  // namespace

void append_packet_rows(const TelemetryPacket& pkt, Table& bronze) {
  if (bronze.num_columns() != 4 || bronze.column(0).type() != DataType::kInt64 ||
      bronze.column(1).type() != DataType::kInt64 || bronze.column(2).type() != DataType::kString ||
      bronze.column(3).type() != DataType::kFloat64) {
    throw std::invalid_argument("append_packet_rows: table is not in the Bronze schema");
  }
  sql::Column& times = bronze.column_mut(0);
  sql::Column& nodes = bronze.column_mut(1);
  sql::Column& sensors = bronze.column_mut(2);
  sql::Column& values = bronze.column_mut(3);
  for (const auto& r : pkt.readings) {
    times.append_int(pkt.timestamp);
    nodes.append_int(static_cast<std::int64_t>(pkt.node_id));
    sensors.append_string(sensor_label(r.sensor));
    values.append_double(r.value);
  }
  bronze.sync_rows();
}

Table packets_to_bronze(std::span<const stream::RecordView> records) {
  Table bronze(bronze_schema());
  bronze.reserve(records.size() * 20);
  for (const auto& v : records) append_packet_rows(decode_packet(v.payload), bronze);
  return bronze;
}

stream::Record encode_job_event(const JobScheduler::Event& ev, const Job& job) {
  ByteWriter w;
  w.i64(ev.time);
  w.u8(static_cast<std::uint8_t>(ev.kind));
  w.i64(job.job_id);
  w.str(job.project);
  w.str(job.user);
  w.u8(static_cast<std::uint8_t>(job.archetype));
  w.varint(job.num_nodes);
  w.u8(job.uses_gpu ? 1 : 0);
  stream::Record rec;
  rec.timestamp = ev.time;
  rec.key = "j" + std::to_string(job.job_id);
  auto bytes = w.take();
  rec.payload.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return rec;
}

void encode_job_event_into(const JobScheduler::Event& ev, const Job& job,
                           stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(ev.time);
  w.raw("j", 1);
  w.text_i64(job.job_id);
  staged.begin_payload();
  w.i64(ev.time);
  w.u8(static_cast<std::uint8_t>(ev.kind));
  w.i64(job.job_id);
  w.str(job.project);
  w.str(job.user);
  w.u8(static_cast<std::uint8_t>(job.archetype));
  w.varint(job.num_nodes);
  w.u8(job.uses_gpu ? 1 : 0);
  staged.end_record();
}

Schema job_event_schema() {
  return Schema{{"time", DataType::kInt64},    {"event", DataType::kString},
                {"job_id", DataType::kInt64},  {"project", DataType::kString},
                {"user", DataType::kString},   {"archetype", DataType::kString},
                {"num_nodes", DataType::kInt64}, {"uses_gpu", DataType::kBool}};
}

Table job_events_to_table(std::span<const stream::RecordView> records) {
  static const char* kEventNames[] = {"submit", "start", "end"};
  Table t(job_event_schema());
  t.reserve(records.size());
  for (const auto& v : records) {
    ByteReader br(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(v.payload.data()), v.payload.size()));
    const std::int64_t time = br.i64();
    const std::uint8_t kind = br.u8();
    const std::int64_t job_id = br.i64();
    std::string project = br.str();
    std::string user = br.str();
    const auto archetype = static_cast<JobArchetype>(br.u8());
    const std::int64_t num_nodes = static_cast<std::int64_t>(br.varint());
    const bool uses_gpu = br.u8() != 0;
    t.append_row({Value(time), Value(kEventNames[kind]), Value(job_id), Value(std::move(project)),
                  Value(std::move(user)), Value(archetype_name(archetype)), Value(num_nodes),
                  Value(uses_gpu)});
  }
  return t;
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
    case Severity::kCritical: return "critical";
  }
  return "?";
}

stream::Record encode_log_event(const LogEvent& ev) {
  ByteWriter w;
  w.i64(ev.timestamp);
  w.u32(ev.node_id);
  w.u8(static_cast<std::uint8_t>(ev.severity));
  w.str(ev.subsystem);
  w.str(ev.message);
  stream::Record rec;
  rec.timestamp = ev.timestamp;
  rec.key = "n" + std::to_string(ev.node_id);
  auto bytes = w.take();
  rec.payload.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return rec;
}

void encode_log_event_into(const LogEvent& ev, stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(ev.timestamp);
  w.raw("n", 1);
  w.text_u64(ev.node_id);
  staged.begin_payload();
  w.i64(ev.timestamp);
  w.u32(ev.node_id);
  w.u8(static_cast<std::uint8_t>(ev.severity));
  w.str(ev.subsystem);
  w.str(ev.message);
  staged.end_record();
}

LogEvent decode_log_event(const stream::Record& r) {
  return decode_log_event(std::string_view(r.payload));
}

LogEvent decode_log_event(std::string_view payload) {
  ByteReader br(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(payload.data()),
                                              payload.size()));
  LogEvent ev;
  ev.timestamp = br.i64();
  ev.node_id = br.u32();
  ev.severity = static_cast<Severity>(br.u8());
  ev.subsystem = br.str();
  ev.message = br.str();
  return ev;
}

Schema log_event_schema() {
  return Schema{{"time", DataType::kInt64},
                {"node_id", DataType::kInt64},
                {"severity", DataType::kString},
                {"subsystem", DataType::kString},
                {"message", DataType::kString}};
}

Table log_events_to_table(std::span<const stream::RecordView> records) {
  Table t(log_event_schema());
  t.reserve(records.size());
  for (const auto& v : records) {
    LogEvent ev = decode_log_event(v.payload);
    t.append_row({Value(ev.timestamp), Value(static_cast<std::int64_t>(ev.node_id)),
                  Value(severity_name(ev.severity)), Value(std::move(ev.subsystem)),
                  Value(std::move(ev.message))});
  }
  return t;
}

}  // namespace oda::telemetry
