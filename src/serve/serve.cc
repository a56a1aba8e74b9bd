#include "serve.h"

#include <algorithm>
#include <map>

namespace phoenix::serve {

std::vector<RequestClass>
buildRequestClasses(const std::vector<apps::ServiceApp> &serviceApps)
{
    std::vector<RequestClass> classes;
    for (const apps::ServiceApp &sapp : serviceApps) {
        // MsIds may be sparse: criticality lookup via map, not index.
        std::map<sim::MsId, sim::Criticality> criticality;
        for (const sim::Microservice &ms : sapp.app.services)
            criticality[ms.id] = ms.criticality;

        for (const apps::RequestType &req : sapp.requests) {
            RequestClass cls;
            cls.index = classes.size();
            cls.app = sapp.app.id;
            cls.appName = sapp.app.name;
            cls.name = req.name;
            cls.baseRps = req.offeredRps;
            cls.path = req.path;

            double nominalMs = 0.0;
            for (const apps::PathComponent &component : req.path) {
                nominalMs += std::max(component.latencyMs, 0.0);
                if (!component.required)
                    continue;
                auto it = criticality.find(component.service);
                if (it != criticality.end())
                    cls.criticality = std::max(cls.criticality,
                                               it->second);
            }
            cls.slo.latencyP95Ms = std::max(50.0, 2.0 * nominalMs);
            classes.push_back(std::move(cls));
        }
    }
    return classes;
}

} // namespace phoenix::serve
