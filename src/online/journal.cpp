#include "repro/online/journal.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "repro/common/crc32c.hpp"
#include "repro/common/ensure.hpp"
#include "repro/core/serialize.hpp"
#include "repro/engine/checkpoint.hpp"

namespace repro::online {

namespace {

void append_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFFu));
  out.push_back(static_cast<char>((v >> 8) & 0xFFu));
  out.push_back(static_cast<char>((v >> 16) & 0xFFu));
  out.push_back(static_cast<char>((v >> 24) & 0xFFu));
}

std::uint32_t read_u32le(std::string_view bytes, std::size_t pos) {
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(bytes[pos + i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

}  // namespace

namespace {

void append_number(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_number(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  REPRO_ENSURE(res.ec == std::errc(), "double rendering failed");
  out.append(buf, res.ptr);
}

}  // namespace

std::string encode_record(const JournalRecord& record) {
  REPRO_ENSURE(record.profile.has_value() != record.power.has_value(),
               "journal record needs exactly one payload");
  std::string out;
  if (record.is_profile()) {
    out += "profile ";
    append_number(out, record.seq);
    out += ' ';
    append_number(out, record.time);
    out += ' ';
    append_number(out, static_cast<std::uint64_t>(record.handle));
    out += ' ';
    append_number(out, record.revision);
    out += '\n';
    core::append_profile(out, *record.profile);
  } else {
    out += "power ";
    append_number(out, record.seq);
    out += ' ';
    append_number(out, record.time);
    out += ' ';
    append_number(out, record.revision);
    out += '\n';
    core::append_power_model(out, *record.power);
  }
  return out;
}

std::string frame_payload(std::string_view payload) {
  REPRO_ENSURE(!payload.empty() && payload.size() <= kMaxFramePayload,
               "journal payload size out of range");
  std::string out;
  out.reserve(8 + payload.size());
  append_u32le(out, static_cast<std::uint32_t>(payload.size()));
  append_u32le(out, common::crc32c(payload));
  out.append(payload);
  return out;
}

std::optional<JournalRecord> decode_record(std::string_view payload,
                                           std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const std::size_t newline = payload.find('\n');
  if (newline == std::string_view::npos)
    return fail("record has no header line");
  const std::string header(payload.substr(0, newline));
  const std::string body(payload.substr(newline + 1));

  JournalRecord record;
  std::istringstream hs(header);
  std::string kind;
  hs >> kind;
  const bool is_profile = kind == "profile";
  if (is_profile)
    hs >> record.seq >> record.time >> record.handle >> record.revision;
  else if (kind == "power")
    hs >> record.seq >> record.time >> record.revision;
  else
    return fail("unknown record kind: " + kind);
  std::string trailing;
  if (hs.fail() || (hs >> trailing))
    return fail("bad record header: " + header);

  // The body is plain store format; read_store's own validation (and
  // its "store line N:" messages) covers every field-level defect.
  core::ModelStore store;
  try {
    std::istringstream bs(body);
    store = core::read_store(bs);
  } catch (const Error& e) {
    return fail(e.what());
  }
  if (is_profile) {
    if (store.profiles.size() != 1 || store.power_model.has_value())
      return fail("profile record body must hold exactly one profile");
    record.profile = std::move(store.profiles.front());
  } else {
    if (!store.profiles.empty() || !store.power_model.has_value())
      return fail("power record body must hold exactly one power_model");
    record.power = std::move(store.power_model);
  }
  return record;
}

bool JournalWriter::open(const std::string& path,
                         const JournalOptions& options,
                         std::uint64_t keep_bytes) {
  options_ = options;
  error_.clear();
  unsynced_ = 0;
  file_ = common::DurableFile::open_append(path);
  if (!file_.ok()) {
    error_ = file_.error();
    return false;
  }
  bool prepared;
  if (keep_bytes == 0) {
    // Fresh journal: drop whatever was there and lay down the header.
    prepared = file_.truncate(0) &&
               file_.write_all(kJournalHeader.data(), kJournalHeader.size()) &&
               file_.sync();
  } else {
    // Resume: cut the torn/corrupt tail recovery identified, then make
    // the cut durable before any new frame lands after it.
    const std::optional<std::uint64_t> current = file_.size();
    if (!current.has_value()) {
      error_ = "stat " + path + " failed";
      return false;
    }
    prepared = *current == keep_bytes ||
               (file_.truncate(keep_bytes) && file_.sync());
  }
  if (!prepared) error_ = file_.error();
  return prepared;
}

bool JournalWriter::append(const JournalRecord& record) {
  if (!ok()) return false;
  const std::string framed = frame_payload(encode_record(record));
  if (!file_.write_all(framed.data(), framed.size())) {
    error_ = file_.error();
    return false;
  }
  ++appended_;
  bool synced = true;
  switch (options_.fsync) {
    case JournalFsync::kOff:
      break;
    case JournalFsync::kOnRevision:
      synced = file_.sync_data();
      break;
    case JournalFsync::kEveryN:
      if (++unsynced_ >= options_.fsync_every) {
        synced = file_.sync_data();
        unsynced_ = 0;
      }
      break;
  }
  if (!synced) error_ = file_.error();
  return synced;
}

bool JournalWriter::sync() {
  if (!ok()) return false;
  unsynced_ = 0;
  if (!file_.sync_data()) {
    error_ = file_.error();
    return false;
  }
  return true;
}

JournalRecovery scan_journal(const std::string& path) {
  JournalRecovery out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;  // no file: nothing to recover
  out.found = true;
  // An I/O error (not corrupt content) voids the whole scan.
  const auto io_error = [&path] {
    JournalRecovery failed;
    failed.found = true;
    failed.error = "read " + path + " failed";
    return failed;
  };
  // The file is read one frame at a time through `buffer`, so a scan
  // holds the decoded records and one payload, never the whole file.
  // Torn-frame byte counts come from the size measured up front.
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(0);
  if (!in || end < 0) return io_error();
  const std::uint64_t size = static_cast<std::uint64_t>(end);
  std::string buffer;
  const auto read_into_buffer = [&](std::size_t n) {
    buffer.resize(n);
    return static_cast<bool>(
        in.read(buffer.data(), static_cast<std::streamsize>(n)));
  };

  const std::size_t header_bytes = std::min<std::uint64_t>(
      size, kJournalHeader.size());
  if (!read_into_buffer(header_bytes)) return io_error();
  if (buffer != kJournalHeader) {
    // A broken header poisons the whole file — frame boundaries can't
    // be trusted without it.
    out.error = "journal header: not a repro-journal v1 file";
    out.dropped_bytes = size;
    out.truncated_frames = out.dropped_bytes > 0 ? 1 : 0;
    return out;
  }

  std::uint64_t pos = kJournalHeader.size();
  out.valid_bytes = pos;
  std::size_t frame = 0;
  std::string why;
  while (pos < size) {
    ++frame;
    const std::uint64_t remain = size - pos;
    if (remain < 8) {
      why = "torn frame header (" + std::to_string(remain) + " of 8 bytes)";
      break;
    }
    if (!read_into_buffer(8)) return io_error();
    const std::uint32_t length = read_u32le(buffer, 0);
    const std::uint32_t stored_crc = read_u32le(buffer, 4);
    if (length == 0 || length > kMaxFramePayload) {
      why = "implausible frame length " + std::to_string(length);
      break;
    }
    if (remain - 8 < length) {
      why = "torn payload (" + std::to_string(remain - 8) + " of " +
            std::to_string(length) + " bytes)";
      break;
    }
    if (!read_into_buffer(length)) return io_error();
    const std::string_view payload = buffer;
    const std::uint32_t computed = common::crc32c(payload);
    if (computed != stored_crc) {
      std::ostringstream mismatch;
      mismatch << "payload checksum mismatch (stored " << std::hex
               << stored_crc << ", computed " << computed << ")";
      why = std::move(mismatch).str();
      break;
    }
    std::string decode_error;
    std::optional<JournalRecord> record = decode_record(payload,
                                                        &decode_error);
    if (!record.has_value()) {
      why = decode_error;
      break;
    }
    out.records.push_back(std::move(*record));
    pos += 8 + length;
    out.valid_bytes = pos;
    out.frame_ends.push_back(pos);
  }
  if (!why.empty())
    out.error = "journal frame " + std::to_string(frame) + ": " + why;
  out.dropped_bytes = size - out.valid_bytes;
  out.truncated_frames = out.dropped_bytes > 0 ? 1 : 0;
  return out;
}

RecoveryReport recover_engine(engine::ModelEngine& engine,
                              const std::string& checkpoint_path,
                              const std::string& journal_path) {
  RecoveryReport report;

  if (!checkpoint_path.empty()) {
    try {
      const std::optional<core::Checkpoint> checkpoint =
          engine::load_checkpoint(checkpoint_path);
      if (checkpoint.has_value()) {
        // restore() validates before mutating: a refusal below leaves
        // the fresh engine untouched and we fall through to a full
        // journal replay from seq 0.
        engine::restore_checkpoint(engine, *checkpoint);
        report.checkpoint_found = true;
        report.checkpoint_epoch = checkpoint->meta.epoch;
        report.journal_next = checkpoint->meta.journal_next;
      }
    } catch (const Error& e) {
      report.checkpoint_error = e.what();
      report.journal_next = 0;
    }
  }
  report.next_seq = report.journal_next;

  if (journal_path.empty()) return report;
  report.journal = scan_journal(journal_path);
  if (!report.journal.found) return report;
  report.durable_bytes = kJournalHeader.size();

  std::uint64_t last_seq = 0;
  bool have_last = false;
  for (std::size_t i = 0; i < report.journal.records.size(); ++i) {
    const JournalRecord& record = report.journal.records[i];
    const auto fail = [&](const std::string& why) {
      report.replay_error =
          "journal replay seq " + std::to_string(record.seq) + ": " + why;
    };
    if (have_last && record.seq <= last_seq) {
      fail("sequence went backwards (after " + std::to_string(last_seq) +
           ")");
      break;
    }
    last_seq = record.seq;
    have_last = true;

    if (record.seq < report.journal_next) {
      // Already folded into the checkpoint.
      ++report.skipped;
      report.durable_bytes = report.journal.frame_ends[i];
      continue;
    }
    if (record.is_profile()) {
      const std::optional<engine::ProcessHandle> existing =
          engine.snapshot()->find(record.profile->name);
      engine::ProcessHandle handle = 0;
      if (existing.has_value()) {
        handle = *existing;
        const engine::ApplyResult result = engine.try_apply(
            engine::Revision::process(handle, *record.profile));
        if (!result) {
          fail("engine refused the revision: " + result.reason);
          break;
        }
      } else {
        // Cold start in the original run: the registration itself was
        // the journaled event.
        try {
          handle = engine.register_process(*record.profile);
        } catch (const Error& e) {
          fail(std::string("registration failed: ") + e.what());
          break;
        }
      }
      if (handle != record.handle) {
        fail("handle mismatch: journaled " + std::to_string(record.handle) +
             ", engine assigned " + std::to_string(handle));
        break;
      }
      if (engine.profile(handle).revision != record.revision) {
        fail("profile revision mismatch: journaled " +
             std::to_string(record.revision) + ", engine at " +
             std::to_string(engine.profile(handle).revision));
        break;
      }
    } else {
      const engine::ApplyResult result =
          engine.try_apply(engine::Revision::power_model(*record.power));
      if (!result) {
        fail("engine refused the power revision: " + result.reason);
        break;
      }
      if (engine.power_revision() != record.revision) {
        fail("power revision mismatch: journaled " +
             std::to_string(record.revision) + ", engine at " +
             std::to_string(engine.power_revision()));
        break;
      }
    }
    ++report.replayed;
    report.next_seq = record.seq + 1;
    report.durable_bytes = report.journal.frame_ends[i];
  }
  return report;
}

}  // namespace repro::online
