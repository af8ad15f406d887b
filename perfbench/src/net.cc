#include "net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Value after `key` (e.g. "epoch=") up to the next space, or "".
std::string Field(const std::string& text, const char* key) {
  size_t pos = text.find(key);
  if (pos == std::string::npos) return "";
  pos += std::strlen(key);
  size_t end = text.find_first_of(" ,}", pos);
  return text.substr(pos, end == std::string::npos ? std::string::npos
                                                   : end - pos);
}

std::string UrlEncode(const std::string& in) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(in.size() * 3);
  for (unsigned char c : in) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

/// Parses the JSON string starting at text[*pos] == '"'; advances *pos
/// past the closing quote. Handles the escapes the server emits.
bool ParseJsonString(const std::string& text, size_t* pos, std::string* out) {
  if (*pos >= text.size() || text[*pos] != '"') return false;
  out->clear();
  for (size_t i = *pos + 1; i < text.size(); ++i) {
    char c = text[i];
    if (c == '"') {
      *pos = i + 1;
      return true;
    }
    if (c != '\\') {
      *out += c;
      continue;
    }
    if (++i >= text.size()) return false;
    switch (text[i]) {
      case 'n': *out += '\n'; break;
      case 'r': *out += '\r'; break;
      case 't': *out += '\t'; break;
      case 'u': {
        if (i + 4 >= text.size()) return false;
        *out += static_cast<char>(
            std::strtol(text.substr(i + 1, 4).c_str(), nullptr, 16));
        i += 4;
        break;
      }
      default: *out += text[i]; break;  // '"', '\\', '/'
    }
  }
  return false;
}

/// Parses `"key":[...]` into its string elements (depth 1) or, with
/// `nested`, into one joined line per inner array.
bool ParseStringArray(const std::string& json, const char* key, bool nested,
                      std::vector<std::string>* out) {
  size_t pos = json.find(key);
  if (pos == std::string::npos) return false;
  pos = json.find('[', pos);
  if (pos == std::string::npos) return false;
  ++pos;
  std::string cell;
  std::string row;
  bool first_cell = true;
  while (pos < json.size()) {
    char c = json[pos];
    if (c == ']') return true;  // the outer array closes
    if (c == ',') {
      ++pos;
      continue;
    }
    if (nested && c == '[') {
      ++pos;
      row.clear();
      first_cell = true;
      while (pos < json.size() && json[pos] != ']') {
        if (json[pos] == ',') {
          ++pos;
          continue;
        }
        if (!ParseJsonString(json, &pos, &cell)) return false;
        if (!first_cell) row += '\t';
        first_cell = false;
        row += cell;
      }
      if (pos >= json.size()) return false;
      ++pos;  // inner ']'
      out->push_back(row);
      continue;
    }
    if (!ParseJsonString(json, &pos, &cell)) return false;
    out->push_back(cell);
  }
  return false;
}

}  // namespace

ReplyFields ParseHeaderFields(const std::string& header) {
  ReplyFields fields;
  fields.epoch = std::strtoull(Field(header, "epoch=").c_str(), nullptr, 10);
  fields.cached = Field(header, "cached=") == "1";
  fields.micros = std::strtod(Field(header, "micros=").c_str(), nullptr);
  return fields;
}

LineClient::~LineClient() { Close(); }

bool LineClient::Connect(uint16_t port) {
  Close();
  fd_ = ConnectLoopback(port);
  return fd_ >= 0;
}

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  pos_ = 0;
}

bool LineClient::ReadLine(std::string* line) {
  for (;;) {
    size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
      }
      return true;
    }
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[16384];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

LineReply LineClient::Roundtrip(const std::string& line) {
  LineReply reply;
  // One request per line: SPARQL is whitespace-insensitive, so line
  // breaks in pretty-printed queries become spaces.
  std::string request = line;
  std::replace(request.begin(), request.end(), '\n', ' ');
  std::replace(request.begin(), request.end(), '\r', ' ');
  request += '\n';
  if (fd_ < 0 || !SendAll(fd_, request)) return reply;
  std::string text;
  if (!ReadLine(&reply.header)) return reply;
  for (;;) {
    if (!ReadLine(&text)) {
      Close();
      return reply;  // kTransport: connection closed mid-reply
    }
    if (text == "END") break;
    reply.body += text;
    reply.body += '\n';
  }
  if (reply.header.rfind("OK", 0) == 0) {
    reply.outcome = Outcome::kOk;
  } else if (reply.header.rfind("BUSY", 0) == 0) {
    reply.outcome = Outcome::kBusy;
  } else {
    reply.outcome = Outcome::kErr;
  }
  return reply;
}

HttpReply HttpQuery(uint16_t port, const std::string& sparql) {
  HttpReply reply;
  int fd = ConnectLoopback(port);
  if (fd < 0) return reply;
  std::string response;
  if (SendAll(fd, "GET /query?q=" + UrlEncode(sparql) + " HTTP/1.0\r\n\r\n")) {
    char chunk[16384];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  // "HTTP/1.0 200 OK\r\n...\r\n\r\n{json}"
  if (response.rfind("HTTP/1.", 0) != 0 || response.size() < 12) return reply;
  reply.status = std::atoi(response.c_str() + 9);
  if (reply.status == 503) {
    reply.outcome = Outcome::kBusy;
    return reply;
  }
  if (reply.status != 200) {
    reply.outcome = Outcome::kErr;
    return reply;
  }
  size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) return reply;
  const std::string json = response.substr(split + 4);
  reply.fields.epoch =
      std::strtoull(Field(json, "\"epoch\":").c_str(), nullptr, 10);
  reply.fields.cached = Field(json, "\"cached\":") == "true";
  reply.fields.micros = std::strtod(Field(json, "\"micros\":").c_str(), nullptr);
  std::vector<std::string> vars, rows;
  if (!ParseStringArray(json, "\"vars\":", false, &vars) ||
      !ParseStringArray(json, "\"bindings\":", true, &rows)) {
    reply.outcome = Outcome::kErr;
    return reply;
  }
  reply.body = "#vars";
  for (const std::string& v : vars) reply.body += "\t" + v;
  reply.body += '\n';
  for (const std::string& r : rows) reply.body += r + "\n";
  reply.outcome = Outcome::kOk;
  return reply;
}

BodyDigest DigestBody(const std::string& body) {
  BodyDigest digest;
  size_t start = 0;
  bool first = true;
  while (start < body.size()) {
    size_t nl = body.find('\n', start);
    if (nl == std::string::npos) nl = body.size();
    if (first) {
      digest.vars = body.substr(start, nl - start);
      first = false;
    } else {
      // FNV-1a 64 with two offset bases: two independent row hashes.
      uint64_t h1 = 0xcbf29ce484222325ULL, h2 = 0x84222325cbf29ce4ULL;
      for (size_t i = start; i < nl; ++i) {
        const auto c = static_cast<unsigned char>(body[i]);
        h1 = (h1 ^ c) * 0x100000001b3ULL;
        h2 = (h2 ^ c) * 0x100000001b3ULL;
      }
      ++digest.rows;
      digest.sum += h1;
      digest.mix += h2 * 0x9e3779b97f4a7c15ULL + (h2 >> 29);
    }
    start = nl + 1;
  }
  return digest;
}

}  // namespace perfbench
