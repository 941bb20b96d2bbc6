// Recursive-descent parser for the SM spec language. Concrete syntax
// (paper Fig. 1 grammar with the practical extensions noted in ast.h):
//
//   sm PublicIp {
//     service "ec2";
//     id_prefix "eip";
//     contained_in Vpc;
//     states {
//       status: enum(ASSIGNED, IDLE) = "IDLE";
//       zone: str;
//       nic: ref NetworkInterface;
//     }
//     transitions {
//       create CreatePublicIp(region: str) {
//         assert(in_list(region, "us-east", "us-west")) else InvalidParameterValue;
//         write(status, ASSIGNED);
//         write(zone, region);
//       }
//       modify AssociateNic(nic_ref: ref NetworkInterface) {
//         assert(nic_ref.zone == zone) else InvalidZone.Mismatch;
//         call(nic_ref, AttachPublicIp, self);
//         write(nic, nic_ref);
//       }
//       destroy DeletePublicIp() {
//         assert(is_null(nic)) else DependencyViolation;
//       }
//     }
//   }
//
// Name resolution: a bare identifier inside a transition body that is a
// declared state variable, parameter, or `self` is a variable reference;
// any other bare identifier is an enum-member string literal (matching the
// paper's `write(status, ASSIGNED)` style).
//
// Integer literals are decimal and must fit int64; the lexer refuses a
// larger one ("integer literal out of range"). A leading `-` is unary
// minus applied to a positive literal, so INT64_MIN, whose magnitude is
// one past INT64_MAX, cannot be written as a literal.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "spec/ast.h"

namespace lce::spec {

struct ParseError {
  std::string message;
  int line = 0;
  int col = 0;

  std::string to_text() const;
};

/// Parse a whole spec (zero or more `sm` definitions).
std::optional<SpecSet> parse_spec(std::string_view src, ParseError* error);

/// Parse exactly one `sm` definition.
std::optional<StateMachine> parse_machine(std::string_view src, ParseError* error);

}  // namespace lce::spec
