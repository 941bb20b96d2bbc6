// Canonical cloud error-code table. Error *codes* are part of the machine
// contract (client tooling branches on them), so the table keeps one
// authoritative list shared by the reference cloud, the synthesized specs,
// and the alignment scorer.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lce {

/// Well-known error codes used across the corpus. Matching the AWS naming
/// style the paper quotes ("DependencyViolation", "IncorrectInstanceState").
namespace errc {
inline constexpr std::string_view kDependencyViolation = "DependencyViolation";
inline constexpr std::string_view kIncorrectInstanceState = "IncorrectInstanceState";
inline constexpr std::string_view kInvalidParameterValue = "InvalidParameterValue";
inline constexpr std::string_view kInvalidSubnetRange = "InvalidSubnet.Range";
inline constexpr std::string_view kInvalidSubnetConflict = "InvalidSubnet.Conflict";
inline constexpr std::string_view kInvalidVpcRange = "InvalidVpc.Range";
inline constexpr std::string_view kResourceNotFound = "ResourceNotFoundException";
inline constexpr std::string_view kResourceInUse = "ResourceInUseException";
inline constexpr std::string_view kResourceAlreadyExists = "ResourceAlreadyExistsException";
inline constexpr std::string_view kLimitExceeded = "LimitExceededException";
inline constexpr std::string_view kInvalidState = "InvalidStateException";
inline constexpr std::string_view kZoneMismatch = "InvalidZone.Mismatch";
inline constexpr std::string_view kUnsupportedOperation = "UnsupportedOperation";
inline constexpr std::string_view kInvalidAction = "InvalidAction";
inline constexpr std::string_view kMissingParameter = "MissingParameter";
inline constexpr std::string_view kValidationError = "ValidationError";
inline constexpr std::string_view kInternalError = "InternalError";
inline constexpr std::string_view kRequestLimitExceeded = "RequestLimitExceeded";
}  // namespace errc

/// One error code with its default message template. Templates may
/// contain {placeholders} filled by `render_message`.
struct ErrorSpec {
  std::string_view code;
  std::string_view message_template;
};

/// The constant table of the codes above. Nothing adds to it at run time,
/// so a code's message, and whether a spec check calls it known, depend
/// only on the code, never on what else the process has constructed.
/// Safe to read from any thread without a lock.
class ErrorRegistry {
 public:
  static const ErrorRegistry& instance();

  bool known(std::string_view code) const;
  /// nullptr when `code` is not in the table.
  const ErrorSpec* find(std::string_view code) const;

  /// Fill {name} placeholders in the code's template from pairs; unknown
  /// codes yield a generic message.
  std::string render_message(
      std::string_view code,
      const std::vector<std::pair<std::string, std::string>>& fields) const;
};

}  // namespace lce
