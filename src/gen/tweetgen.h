// TweetGen: the custom external data source from the dissertation's
// evaluation. Generates synthetic but meaningful tweets in JSON/ADM form
// at a pattern-controlled rate and pushes them into an in-process channel
// (the stand-in for a network socket).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adm/value.h"
#include "common/mpmc_queue.h"
#include "common/rng.h"
#include "gen/pattern.h"

namespace asterix {
namespace gen {

/// In-process stand-in for a socket between an external source and a feed
/// adaptor. Push-based: the source keeps emitting at its regular rate
/// irrespective of receiver state; the receiver pulls what has arrived.
class Channel {
 public:
  /// Payloads buffered before Send parks: a socket buffer far deeper than
  /// any backlog a running pipeline leaves behind.
  static constexpr size_t kCapacity = size_t{1} << 16;

  /// Sender side. Drops nothing; parks only while the channel is full,
  /// like a writer on a full socket buffer. False (payload not accepted)
  /// once the channel is closed.
  bool Send(std::string payload) { return queue_.Push(std::move(payload)); }

  /// Receiver side: drains up to `max` pending payloads (non-blocking).
  std::vector<std::string> Drain(size_t max = SIZE_MAX) {
    return queue_.PopAllBounded(max);
  }

  /// Receiver side: waits up to `timeout_ms` for one payload.
  std::optional<std::string> Receive(int64_t timeout_ms) {
    return queue_.PopFor(std::chrono::milliseconds(timeout_ms));
  }

  /// Rejects further sends (and wakes a parked sender); the receiver
  /// still drains what is pending.
  void CloseSender() { queue_.Close(); }
  bool closed() const { return queue_.closed(); }
  size_t pending() const { return queue_.size(); }

 private:
  common::MpmcQueue<std::string> queue_{kCapacity};
};

/// Synthesizes one tweet record per call. Deterministic per seed.
class TweetFactory {
 public:
  /// `source_id` prefixes tweet ids so that parallel TweetGen instances
  /// produce globally unique keys.
  explicit TweetFactory(int source_id, uint64_t seed = 42);

  /// A tweet conforming to the Tweet datatype of Listing 3.1: id, user
  /// (nested record), latitude/longitude, created_at, message_text,
  /// country, plus a numeric `seq` used by the record-id pattern figures.
  adm::Value NextTweet();

  /// The same tweet in serialized (JSON/ADM text) form, as an external
  /// source would ship it.
  std::string NextTweetText() { return NextTweet().ToAdmString(); }

  int64_t generated() const { return seq_; }

 private:
  const int source_id_;
  common::Rng rng_;
  int64_t seq_ = 0;
};

/// A TweetGen instance: a thread that pushes tweets into a channel
/// following a rate pattern, then stops. Models a push-based source:
/// generation continues regardless of what the receiver does.
class TweetGenServer {
 public:
  TweetGenServer(int source_id, Pattern pattern, uint64_t seed = 42);
  ~TweetGenServer();

  /// Starts pushing. `time_scale` < 1.0 compresses the pattern's
  /// durations (0.1 = run 10x faster than described).
  void Start(double time_scale = 1.0);

  /// Stops early (the pattern also terminates naturally). Closes the
  /// channel, so a Send parked on a full channel returns at once.
  void Stop();

  /// Blocks until the pattern completes or Stop() is called.
  void Join();

  Channel& channel() { return channel_; }
  /// Payloads the channel accepted: exactly what a reader can drain.
  int64_t tweets_sent() const { return sent_.load(); }
  bool finished() const { return finished_.load(); }

 private:
  void RunLoop(double time_scale);

  const int source_id_;
  const Pattern pattern_;
  TweetFactory factory_;
  Channel channel_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
  std::atomic<int64_t> sent_{0};
};

}  // namespace gen
}  // namespace asterix

