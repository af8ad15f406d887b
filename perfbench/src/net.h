// Loopback clients of the repo benchmark. They are written against the
// wire formats (line protocol, HTTP/1.0 /query JSON) rather than the
// program's own client library, so a change to that library cannot move
// the measurement of the server.
#ifndef SOFOS_PERFBENCH_NET_H_
#define SOFOS_PERFBENCH_NET_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// How one request ended, from the client's point of view.
enum class Outcome { kOk, kErr, kBusy, kTransport };

/// One line-protocol reply: the header and the body lines (END stripped).
struct LineReply {
  Outcome outcome = Outcome::kTransport;
  std::string header;
  std::string body;  // body lines, each '\n'-terminated
};

/// Header fields of `OK QUERY ...` / `OK UPDATE ...` replies that the
/// benchmark reads. Missing fields stay at their defaults.
struct ReplyFields {
  uint64_t epoch = 0;
  bool cached = false;
  double micros = 0.0;
};
ReplyFields ParseHeaderFields(const std::string& header);

/// Blocking client for one line-protocol connection on 127.0.0.1.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(uint16_t port);
  void Close();
  /// Sends `line` (line breaks flattened) plus '\n' and reads up to the
  /// END line.
  LineReply Roundtrip(const std::string& line);

 private:
  bool ReadLine(std::string* line);

  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
};

/// One HTTP /query reply decoded back into the line protocol's body form
/// ("#vars\t..." then one tab-separated row per line), so both surfaces
/// are verified against the same expected text.
struct HttpReply {
  Outcome outcome = Outcome::kTransport;
  int status = 0;
  ReplyFields fields;
  std::string body;
};

/// `GET /query?q=<sparql>` over a fresh HTTP/1.0 connection, read to EOF.
HttpReply HttpQuery(uint16_t port, const std::string& sparql);

/// An order-independent digest of a body: the #vars line plus the multiset
/// of row lines (routed and base answers may list rows in different
/// orders). Senders keep this instead of the body, so the benchmark's own
/// memory stays out of the server's peak RSS.
struct BodyDigest {
  std::string vars;   // the leading "#vars..." line
  uint64_t rows = 0;
  uint64_t sum = 0;   // Σ hash(row line), mod 2^64
  uint64_t mix = 0;   // Σ hash'(row line), a second, independent hash
  bool operator==(const BodyDigest& o) const {
    return vars == o.vars && rows == o.rows && sum == o.sum && mix == o.mix;
  }
  bool operator!=(const BodyDigest& o) const { return !(*this == o); }
};
BodyDigest DigestBody(const std::string& body);

}  // namespace perfbench

#endif  // SOFOS_PERFBENCH_NET_H_
