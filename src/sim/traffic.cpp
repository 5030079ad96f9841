#include "sim/traffic.hpp"

namespace iadm::sim {

Label
UniformTraffic::pick(Label, Rng &rng)
{
    return static_cast<Label>(rng.uniform(nSize_));
}

Label
PermutationTraffic::pick(Label src, Rng &)
{
    return perm_(src);
}

Label
HotspotTraffic::pick(Label, Rng &rng)
{
    if (rng.chance(hotFraction_))
        return hot_.size() == 1 ? hot_[0]
                                : hot_[rng.uniform(hot_.size())];
    return static_cast<Label>(rng.uniform(nSize_));
}

} // namespace iadm::sim
