#include "optimizer/plan.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <vector>

#include "common/str_util.h"

namespace autostats {

namespace {

// Slab pool for PlanNode. The optimizer allocates and frees nodes at very
// high rates (a tree per probe, a deep copy per cache hit), and at 4096
// cached plans the global allocator's lock and per-node metadata dominate
// Clone(). Blocks are served LIFO from a per-thread free list backed by
// chunked slabs, so the common alloc/free is a couple of pointer moves
// with no lock.
//
// Slabs are retained for the life of the process (like the metrics
// registry's leaky singletons): a tenant's statements run on whichever
// server worker picks them up, so a node allocated on one worker can be
// freed on another when it leaves the plan cache, and slab lifetime
// cannot be tied to any one thread. Every slab is registered in
// a process-wide list on the Refill slow path, so retained memory stays
// reachable after the thread whose free list held it exits (a leak
// checker sees it as held, not lost). The pool object itself is
// trivially destructible, which keeps frees during static destruction
// (cached plans outliving main) safe.
constexpr size_t kNodesPerSlab = 256;

struct SlabRegistry {
  std::mutex mu;
  std::vector<void*> slabs;
};

SlabRegistry& Slabs() {
  static SlabRegistry* registry = new SlabRegistry();  // never destroyed
  return *registry;
}

struct FreeBlock {
  FreeBlock* next;
};

struct NodePool {
  FreeBlock* free = nullptr;

  void* Allocate() {
    if (free == nullptr) Refill();
    FreeBlock* block = free;
    free = block->next;
    return block;
  }

  void Free(void* ptr) {
    FreeBlock* block = static_cast<FreeBlock*>(ptr);
    block->next = free;
    free = block;
  }

  void Refill() {
    char* slab =
        static_cast<char*>(::operator new(kNodesPerSlab * sizeof(PlanNode)));
    {
      SlabRegistry& registry = Slabs();
      std::lock_guard<std::mutex> lock(registry.mu);
      registry.slabs.push_back(slab);
    }
    for (size_t i = kNodesPerSlab; i-- > 0;) Free(slab + i * sizeof(PlanNode));
  }
};

thread_local NodePool g_plan_node_pool;

}  // namespace

void* PlanNode::operator new(size_t size) {
  if (size != sizeof(PlanNode)) return ::operator new(size);
  return g_plan_node_pool.Allocate();
}

void PlanNode::operator delete(void* ptr) noexcept {
  if (ptr != nullptr) g_plan_node_pool.Free(ptr);
}

void PlanNode::operator delete(void* ptr, size_t size) noexcept {
  if (ptr == nullptr) return;
  if (size != sizeof(PlanNode)) {
    ::operator delete(ptr);
    return;
  }
  g_plan_node_pool.Free(ptr);
}

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kTableScan:
      return "TableScan";
    case PlanOp::kIndexSeek:
      return "IndexSeek";
    case PlanOp::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PlanOp::kIndexNestedLoopJoin:
      return "IndexNestedLoopJoin";
    case PlanOp::kHashJoin:
      return "HashJoin";
    case PlanOp::kMergeJoin:
      return "MergeJoin";
    case PlanOp::kHashAggregate:
      return "HashAggregate";
    case PlanOp::kStreamAggregate:
      return "StreamAggregate";
  }
  return "?";
}

std::string PlanNode::Signature() const {
  std::string sig = PlanOpName(op);
  if (table != kInvalidTableId) sig += StrFormat("[t%d]", table);
  if (!index_name.empty()) sig += "{" + index_name + "}";
  if (!filter_indices.empty()) {
    std::vector<int> sorted = filter_indices;
    std::sort(sorted.begin(), sorted.end());
    sig += "f(";
    for (int i : sorted) sig += StrFormat("%d,", i);
    sig += ")";
  }
  if (!join_indices.empty()) {
    std::vector<int> sorted = join_indices;
    std::sort(sorted.begin(), sorted.end());
    sig += "j(";
    for (int i : sorted) sig += StrFormat("%d,", i);
    sig += ")";
  }
  if (!group_by.empty()) {
    sig += "g(";
    for (const ColumnRef& c : group_by) {
      sig += StrFormat("%d.%d,", c.table, c.column);
    }
    sig += ")";
  }
  if (!children.empty()) {
    sig += "(";
    for (const auto& child : children) sig += child->Signature() + ";";
    sig += ")";
  }
  return sig;
}

std::string PlanNode::ToString(const Database& db, const Query& query,
                               int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += PlanOpName(op);
  if (table != kInvalidTableId) {
    out += " " + db.table(table).schema().table_name();
  }
  if (!index_name.empty()) out += " via " + index_name;
  if (!filter_indices.empty()) {
    std::vector<std::string> preds;
    for (int i : filter_indices) {
      preds.push_back(query.filters()[static_cast<size_t>(i)].ToString(db));
    }
    out += " [" + Join(preds, " AND ") + "]";
  }
  if (!join_indices.empty()) {
    std::vector<std::string> preds;
    for (int i : join_indices) {
      preds.push_back(query.joins()[static_cast<size_t>(i)].ToString(db));
    }
    out += " on " + Join(preds, " AND ");
  }
  out += StrFormat("  (rows=%s, local=%s, total=%s)",
                   FormatDouble(est_rows, 1).c_str(),
                   FormatDouble(cost_local, 1).c_str(),
                   FormatDouble(cost_subtree, 1).c_str());
  for (const auto& child : children) {
    out += '\n';
    out += child->ToString(db, query, indent + 1);
  }
  return out;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->op = op;
  copy->table = table;
  copy->index_name = index_name;
  copy->filter_indices = filter_indices;
  copy->join_indices = join_indices;
  copy->group_by = group_by;
  copy->est_rows = est_rows;
  copy->cost_local = cost_local;
  copy->cost_subtree = cost_subtree;
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

namespace {
void CollectNodes(const PlanNode* node, std::vector<const PlanNode*>* out) {
  out->push_back(node);
  for (const auto& child : node->children) CollectNodes(child.get(), out);
}
}  // namespace

std::vector<const PlanNode*> Plan::Nodes() const {
  std::vector<const PlanNode*> out;
  if (root) CollectNodes(root.get(), &out);
  return out;
}

}  // namespace autostats
