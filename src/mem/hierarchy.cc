#include "mem/hierarchy.hh"

namespace stems {

Hierarchy::Hierarchy(const HierarchyParams &params)
    : l1_("L1D", params.l1Bytes, params.l1Ways),
      l2_("L2", params.l2Bytes, params.l2Ways)
{
}

bool
Hierarchy::accessL1(Addr a)
{
    return l1_.access(a);
}

void
Hierarchy::handleL1Victim(const std::optional<Cache::Victim> &v)
{
    if (v && l1Evict_)
        l1Evict_(v->addr);
}

void
Hierarchy::handleL2Victim(const std::optional<Cache::Victim> &v)
{
    if (v && v->prefetched && !v->referenced && l2PrefetchDrop_)
        l2PrefetchDrop_(v->addr);
}

void
Hierarchy::fillL1(Addr a)
{
    handleL1Victim(l1_.insert(blockAlign(a)));
}

void
Hierarchy::fill(Addr a)
{
    handleL2Victim(l2_.insert(blockAlign(a)));
    handleL1Victim(l1_.insert(blockAlign(a)));
}

void
Hierarchy::fillPrefetchL2(Addr a)
{
    handleL2Victim(l2_.insert(blockAlign(a), /*prefetched=*/true));
}

void
Hierarchy::invalidate(Addr a)
{
    if (auto v = l1_.invalidate(blockAlign(a)); v && l1Evict_)
        l1Evict_(v->addr);
    if (auto v = l2_.invalidate(blockAlign(a));
        v && v->prefetched && !v->referenced && l2PrefetchDrop_) {
        l2PrefetchDrop_(v->addr);
    }
}

void
Hierarchy::saveState(StateWriter &w) const
{
    l1_.saveState(w);
    l2_.saveState(w);
}

void
Hierarchy::loadState(StateReader &r)
{
    l1_.loadState(r);
    l2_.loadState(r);
}

} // namespace stems
