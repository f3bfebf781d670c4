# An unknown flag fails the verb with an error that names it, instead of
# silently eating the next token as its value.
execute_process(COMMAND ${MFC} run ${CASE} --rnaks 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "mfc run accepted the unknown flag --rnaks")
endif()
if(NOT err MATCHES "--rnaks")
  message(FATAL_ERROR "mfc run failed without naming --rnaks: ${err}")
endif()

# mfc ensemble has no --queue or --workers: one job cursor feeds one
# campaign worker per thread.
foreach(flag queue workers)
  execute_process(COMMAND ${MFC} ensemble --${flag} 2
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "mfc ensemble accepted the retired flag --${flag}")
  endif()
  if(NOT err MATCHES "--${flag}")
    message(FATAL_ERROR "mfc ensemble failed without naming --${flag}: ${err}")
  endif()
endforeach()
