#include "baselines/moto_like.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"

namespace lce::baselines {

namespace {

int category_priority(docs::ApiCategory c) {
  // Lifecycle and action verbs land before the long tail of per-attribute
  // modifies — matching how manual emulators actually grow (and Table 1's
  // anecdote: within a small budget, only the create/describe wave of a
  // service makes it in).
  switch (c) {
    case docs::ApiCategory::kCreate: return 0;
    case docs::ApiCategory::kDescribe: return 1;
    case docs::ApiCategory::kDestroy: return 2;
    case docs::ApiCategory::kAction: return 3;
    case docs::ApiCategory::kModify: return 4;
  }
  return 5;
}

/// Strip the bug-relevant checks from a copy of the catalog, mirroring the
/// manual emulator's missing logic.
docs::CloudCatalog degrade_catalog(docs::CloudCatalog catalog, const MotoLikeOptions& opts) {
  if (opts.delete_vpc_dependency_bug) {
    if (docs::ResourceModel* vpc = catalog.find_resource("Vpc")) {
      if (docs::ApiModel* del = vpc->find_api("DeleteVpc")) {
        del->constraints.clear();
      }
    }
  }
  if (opts.start_instance_silent_bug) {
    if (docs::ResourceModel* instance = catalog.find_resource("Instance")) {
      if (docs::ApiModel* start = instance->find_api("StartInstance")) {
        start->constraints.clear();
      }
    }
  }
  return catalog;
}

}  // namespace

MotoLike::MotoLike(docs::CloudCatalog catalog, MotoLikeOptions opts)
    : opts_(std::move(opts)),
      inner_(degrade_catalog(std::move(catalog), opts_),
             cloud::ReferenceCloudOptions{
                 .name = "moto-inner",
                 // Moto does not enforce containment reclamation globally.
                 .universal_reclaim_guard = false,
             }) {
  // Select the per-service implemented subset by priority.
  for (const auto& service : inner_.catalog().services) {
    std::size_t budget = SIZE_MAX;
    auto it = opts_.coverage.find(service.name);
    if (it != opts_.coverage.end()) budget = it->second;

    struct Entry {
      int priority;
      std::size_t resource_idx;
      std::size_t api_idx;
      const std::string* name;
    };
    std::vector<Entry> entries;
    for (std::size_t ri = 0; ri < service.resources.size(); ++ri) {
      const auto& r = service.resources[ri];
      for (std::size_t ai = 0; ai < r.apis.size(); ++ai) {
        entries.push_back(
            Entry{category_priority(r.apis[ai].category), ri, ai, &r.apis[ai].name});
      }
    }
    std::stable_sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (a.priority != b.priority) return a.priority < b.priority;
      if (a.resource_idx != b.resource_idx) return a.resource_idx < b.resource_idx;
      return a.api_idx < b.api_idx;
    });
    for (std::size_t i = 0; i < entries.size() && i < budget; ++i) {
      implemented_.insert(*entries[i].name);
    }
  }
}

ApiResponse MotoLike::invoke(const ApiRequest& req) {
  if (implemented_.find(req.api) == implemented_.end()) {
    // Not a code of the shared error table: only this baseline answers it.
    return ApiResponse::failure(
        "NotImplemented", strf("The ", req.api, " action has not been implemented."));
  }
  return inner_.invoke(req);
}

void MotoLike::reset() { inner_.reset(); }

bool MotoLike::supports(const std::string& api) const {
  return implemented_.find(api) != implemented_.end();
}

}  // namespace lce::baselines
