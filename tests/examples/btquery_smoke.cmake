# End-to-end check of btquery's BTSX v2 round trip: query an XML file while
# saving it with --save-btsx, then run the same query on the saved .btsx2
# file (opened as a DiskStore) and require identical stdout.
#
#   cmake -DBTQUERY=<btquery> -DINPUT=<file.xml> -DQUERY=<query>
#         -DWORK_DIR=<dir> -P btquery_smoke.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(saved "${WORK_DIR}/t.btsx2")
file(REMOVE "${saved}")

execute_process(
  COMMAND "${BTQUERY}" "--save-btsx=${saved}" "${INPUT}" "${QUERY}"
  RESULT_VARIABLE xml_rc OUTPUT_VARIABLE xml_out ERROR_VARIABLE xml_err)
if(NOT xml_rc EQUAL 0)
  message(FATAL_ERROR "btquery on ${INPUT} failed (${xml_rc}):\n${xml_err}")
endif()
file(READ "${saved}" magic LIMIT 5)
if(NOT magic STREQUAL "BTSX2")
  message(FATAL_ERROR "--save-btsx wrote '${magic}...', not a BTSX v2 file")
endif()

execute_process(
  COMMAND "${BTQUERY}" "${saved}" "${QUERY}"
  RESULT_VARIABLE disk_rc OUTPUT_VARIABLE disk_out ERROR_VARIABLE disk_err)
if(NOT disk_rc EQUAL 0)
  message(FATAL_ERROR "btquery on ${saved} failed (${disk_rc}):\n${disk_err}")
endif()
if(NOT disk_out STREQUAL xml_out)
  message(FATAL_ERROR
          "stdout differs:\n--- xml ---\n${xml_out}--- btsx2 ---\n${disk_out}")
endif()
string(STRIP "${xml_out}" result)
if(result STREQUAL "")
  message(FATAL_ERROR "query returned nothing; the check would be vacuous")
endif()
file(REMOVE "${saved}")
