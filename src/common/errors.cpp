#include "common/errors.h"

#include "common/strings.h"

namespace lce {

namespace {

constexpr ErrorSpec kTable[] = {
    {errc::kDependencyViolation,
     "The {resource} '{id}' has dependencies and cannot be deleted."},
    {errc::kIncorrectInstanceState,
     "The instance '{id}' is not in a state from which it can perform {api}."},
    {errc::kInvalidParameterValue, "Value ({value}) for parameter {param} is invalid."},
    {errc::kInvalidSubnetRange,
     "The CIDR '{value}' is invalid (block size must be /16 to /28)."},
    {errc::kInvalidSubnetConflict, "The CIDR '{value}' conflicts with another subnet."},
    {errc::kInvalidVpcRange, "The CIDR '{value}' is invalid (block size must be /16 to /28)."},
    {errc::kResourceNotFound, "The {resource} '{id}' does not exist."},
    {errc::kResourceInUse, "The {resource} '{id}' is currently in use."},
    {errc::kResourceAlreadyExists, "The {resource} '{id}' already exists."},
    {errc::kLimitExceeded, "You have reached the limit on {resource} resources."},
    {errc::kInvalidState,
     "The {resource} '{id}' is in state '{state}'; operation not allowed."},
    {errc::kZoneMismatch, "Resources must be located in the same zone (got '{value}')."},
    {errc::kUnsupportedOperation, "The requested operation {api} is not supported."},
    {errc::kInvalidAction, "The action {api} is not valid for this endpoint."},
    {errc::kMissingParameter, "The request must contain the parameter {param}."},
    {errc::kValidationError, "Validation failed for {param}."},
    {errc::kInternalError, "An internal error has occurred."},
    {errc::kRequestLimitExceeded, "Request limit exceeded for {api}; retry later."},
};

}  // namespace

const ErrorRegistry& ErrorRegistry::instance() {
  static constexpr ErrorRegistry reg;
  return reg;
}

bool ErrorRegistry::known(std::string_view code) const { return find(code) != nullptr; }

const ErrorSpec* ErrorRegistry::find(std::string_view code) const {
  for (const ErrorSpec& s : kTable) {
    if (s.code == code) return &s;
  }
  return nullptr;
}

std::string ErrorRegistry::render_message(
    std::string_view code,
    const std::vector<std::pair<std::string, std::string>>& fields) const {
  const ErrorSpec* spec = find(code);
  std::string msg = spec != nullptr ? std::string(spec->message_template)
                                    : strf("Request failed with code ", code, ".");
  for (const auto& [k, v] : fields) {
    msg = replace_all(std::move(msg), "{" + k + "}", v);
  }
  return msg;
}

}  // namespace lce
